import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import fdsim.mc as mc
from fdsim import (
    Direction,
    ExperimentConfig,
    GammaParams,
    InvalidParameterError,
    RicianSpec,
    RngHandle,
    SystemGeometry,
    gamma_cdf,
    ks_distance,
    moment1,
    run_si_empirical,
    run_si_theoretical,
    run_sinr,
)
from fdsim.beamforming import zf_decoder_batch, zf_precoder_batch
from fdsim.channel import RAYLEIGH, generate_batch

SPEC = RicianSpec(0.5, 1.0)


def _cfg(M=16, N=8, K=1, L=1, trials=10_000, seed=50, **kw):
    return ExperimentConfig(
        geom=SystemGeometry(L=L, K=K, M=M, N=N), si_spec=SPEC, trials=trials,
        seed=seed, **kw,
    )


class TestSiEmpirical:
    def test_single_stream_mean(self):
        rep = run_si_empirical(_cfg(trials=200_000))
        assert rep.emp_m1 == pytest.approx(1.25, rel=0.01)
        assert rep.gof.sample_count == 200_000
        assert rep.samples.size == 200_000

    def test_multi_stream_mean(self):
        rep = run_si_empirical(_cfg(K=3, trials=200_000))
        assert rep.emp_m1 == pytest.approx(3.75, rel=0.01)
        assert rep.emp_m2 == pytest.approx(19.89673202614379, rel=0.03)

    def test_scalar_rayleigh_is_exponential(self):
        cfg = ExperimentConfig(
            geom=SystemGeometry(L=1, K=1, M=1, N=1),
            si_spec=RicianSpec(0.0, 1.0), trials=300_000, seed=51,
        )
        rep = run_si_empirical(cfg)
        d = ks_distance(rep.samples, lambda x: gamma_cdf(x, GammaParams(1.0, 1.0)))
        assert d <= 0.01

    def test_empirical_variance_identity(self):
        rep = run_si_empirical(_cfg(trials=50_000))
        assert rep.emp_var == pytest.approx(rep.emp_m2 - rep.emp_m1**2, rel=1e-9)

    def test_thread_count_does_not_change_results(self):
        cfg = _cfg(K=2, trials=70_000)
        a = run_si_empirical(cfg, threads=1)
        b = run_si_empirical(cfg, threads=8)
        assert np.array_equal(a.samples, b.samples)
        assert a.emp_m1 == b.emp_m1 and a.gof.ks_statistic == b.gof.ks_statistic


class TestSiTheoretical:
    def test_mean(self):
        rep = run_si_theoretical(_cfg(K=3, trials=200_000))
        assert rep.emp_m1 == pytest.approx(moment1(3, SPEC), rel=0.01)

    def test_ks_self_consistency(self):
        rep = run_si_theoretical(_cfg(trials=100_000))
        assert rep.gof.ks_statistic <= 0.01

    def test_matched_seeds_reproduce(self):
        cfg = _cfg(trials=30_000)
        a = run_si_theoretical(cfg)
        b = run_si_theoretical(cfg, threads=4)
        assert np.array_equal(a.samples, b.samples)


class TestSinrDownlink:
    def test_single_cell_single_radio_terms_vanish(self):
        t = run_sinr(_cfg(trials=2000))
        assert np.all(t["mui"] == 0)
        assert np.all(t["ici"] == 0)
        assert np.all(t["cmi"] == 0)

    def test_single_cell_ici_zero_any_k(self):
        t = run_sinr(_cfg(K=3, trials=2000))
        assert np.all(t["ici"] == 0)

    def test_useful_gain_mean(self):
        t = run_sinr(_cfg(K=3, trials=100_000))
        assert t["useful"].mean() == pytest.approx(14.0, rel=0.01)  # M - K + 1

    def test_two_cells_inter_cell_mean(self):
        t = run_sinr(_cfg(L=2, trials=100_000))
        assert t["ici"].mean() == pytest.approx(1.0, rel=0.02)  # U = K = 1

    def test_sinr_assembly_identity(self):
        t = run_sinr(_cfg(L=2, K=2, trials=5000, noise_power=0.5))
        denom = t["mui"] + t["ici"] + t["cmi"] + t["si"] + t["noise"]
        assert np.allclose(t["sinr"], t["useful"] / denom, rtol=1e-12)


class TestSinrUplink:
    def test_useful_gain_mean(self):
        t = run_sinr(_cfg(trials=100_000, direction=Direction.UPLINK))
        assert t["useful"].mean() == pytest.approx(8.0, rel=0.01)  # Gamma(N, 1)

    def test_noise_preserved_by_unit_norm_rows(self):
        t = run_sinr(_cfg(trials=100_000, noise_power=2.0, direction=Direction.UPLINK))
        assert t["noise"].mean() == pytest.approx(2.0, rel=0.01)

    def test_si_term_mean_matches_closed_form(self):
        t = run_sinr(_cfg(K=3, trials=100_000, direction=Direction.UPLINK))
        assert t["si"].mean() == pytest.approx(moment1(3, SPEC), rel=0.02)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        _cfg(trials=0)
    with pytest.raises(InvalidParameterError):
        _cfg(noise_power=-1.0)
    for seed in (-1, 2**64, 1.0):
        with pytest.raises(InvalidParameterError, match="seed"):
            _cfg(seed=seed)


# ---------------------------------------------------------------------------
# SINR regeneration path.  Real Rayleigh draws are never rank deficient, so a stub
# wraps the real ZF routine and additionally flags every trial whose channel
# has Re H[0, 0] > 1.5 (about 1.7% of draws).  Choosing by content keeps the
# stub deterministic and thread safe; the digests pin the retry stream layout.


def _flag_by_content(zf_fn):
    def stub(H):
        out, bad = zf_fn(H)
        return out, bad | (H[:, 0, 0].real > 1.5)

    return stub


@pytest.fixture
def flaky_zf(monkeypatch):
    monkeypatch.setattr(mc, "zf_precoder_batch", _flag_by_content(mc.zf_precoder_batch))
    monkeypatch.setattr(mc, "zf_decoder_batch", _flag_by_content(mc.zf_decoder_batch))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


RETRY_TRIALS = 20_000  # two blocks, so the thread pool is exercised

# (regenerated trials, sha256 of the outputs)
SINR_RETRY_GOLDEN = {
    Direction.DOWNLINK: (
        678, "ea1946ff37c396dffe902f971869af345e7fe7fde9788697043b6c421ce642b2"
    ),
    Direction.UPLINK: (
        1023, "b1acbae53c34990bec944d9513acc153b83b608110bea8f81b246402cd59a313"
    ),
}


@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_sinr_regeneration_path(flaky_zf, direction):
    cfg = _cfg(M=8, N=4, K=2, L=2, trials=RETRY_TRIALS, seed=62, direction=direction)
    a = run_sinr(cfg, threads=1)
    b = run_sinr(cfg, threads=4)
    assert a["regenerated"] > 0
    assert a["regenerated"] == b["regenerated"]
    for k in mc._TERM_KEYS:
        assert np.array_equal(a[k], b[k])
    got = (a["regenerated"], _digest(*(a[k] for k in mc._TERM_KEYS)))
    assert got == SINR_RETRY_GOLDEN[direction]


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads):
    cfg = _cfg(trials=10)
    for run in (run_si_empirical, run_si_theoretical, run_sinr):
        with pytest.raises(InvalidParameterError, match="threads"):
            run(cfg, threads=threads)


# ---------------------------------------------------------------------------
# Links seen only through fixed beamformers are drawn by ``mc._sandwich``
# from the exact law of A @ H @ B, without H.  The full chain, which draws
# every H, is kept here as the reference.


def _within_5_se(samples, expected):
    """Real and imaginary parts of the sample mean within 5 standard errors
    (plus rounding, for parts such as Im |y|^2 that are exactly 0)."""
    n = samples.shape[0]
    err = samples.mean(axis=0) - expected
    for part in (np.real, np.imag):
        se = part(samples).std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(part(err)) <= 5 * se + 1e-9)


def test_sandwich_mean_and_covariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    B = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    spec, n = RicianSpec(0.7, 1.3), 100_000
    Y = mc._sandwich(
        np.broadcast_to(A, (n, 2, 4)), spec, np.broadcast_to(B, (n, 5, 3)),
        RngHandle(9).generator(),
    )
    y = Y.transpose(0, 2, 1).reshape(n, 6)  # column-major vec(Y)
    mean = spec.mu * np.outer(A.sum(axis=1), B.sum(axis=0)).T.reshape(6)
    _within_5_se(y, mean)
    d = y - mean
    cov = spec.nu**2 * np.kron((B.conj().T @ B).conj(), A @ A.conj().T)
    _within_5_se(d[:, :, None] * d[:, None, :].conj(), cov)
    _within_5_se(d[:, :, None] * d[:, None, :], np.zeros((6, 6)))  # circular


def _near_tolerance(n, rows, cols, gen):
    """Channels with cond(H) half the _gram_bad limit 1/sqrt(max(rows, cols) eps)."""
    k = min(rows, cols)
    s = np.geomspace(1.0, 2.0 * np.sqrt(max(rows, cols) * np.finfo(float).eps), k)
    U = np.linalg.qr(generate_batch(n, rows, k, RAYLEIGH, gen))[0]
    Vh = np.linalg.qr(generate_batch(n, cols, k, RAYLEIGH, gen))[0].conj().swapaxes(-1, -2)
    return (U * s) @ Vh


@pytest.mark.parametrize("K, M, N", [(2, 8, 4), (3, 16, 8), (8, 64, 32)])
def test_sandwich_factors_every_accepted_beamformer(K, M, N):
    gen = RngHandle(4).generator()
    V, bad_v = zf_precoder_batch(_near_tolerance(256, K, M, gen))
    W, bad_w = zf_decoder_batch(_near_tolerance(256, N, K, gen))
    assert not bad_v.any() and not bad_w.any()
    for A, B in [(W[:, :1], V), (W, V), (W, np.eye(K)), (W, np.ones((1, 1))), (np.eye(K), V)]:
        Y = mc._sandwich(A, SPEC, B, gen)
        assert Y.shape == (256, A.shape[-2], B.shape[-1]) and np.all(np.isfinite(Y))


def test_normals_per_trial(monkeypatch):
    # a return to drawing channel matrices in run_si_empirical, or full-matrix
    # draws of H_si, H_cross, H_x or eta in run_sinr, shows here
    drawn = []

    def counting(*args):
        out = real(*args)
        drawn.append(2 * out.size)
        return out

    real = mc.generate_batch
    monkeypatch.setattr(mc, "generate_batch", counting)
    K, M, N, T = 3, 16, 8, 1000
    run_si_empirical(_cfg(K=K, M=M, N=N, trials=T))
    assert sum(drawn) == T * (K * (K - 1) + 4 * K)  # layout 3: T, g and z
    drawn.clear()
    t = run_sinr(_cfg(L=2, K=2, M=16, N=8, trials=T, direction=Direction.UPLINK))
    assert t["regenerated"] == 0 and sum(drawn) == T * 188


def _zf(zf_fn, H):
    out, bad = zf_fn(H)
    assert not bad.any()
    return out


def _full_chain_si(cfg):
    """The chain whose law run_si_empirical samples: H_si, H_down and H_up
    drawn in full, ZF beamformers from the real kernels.  Trials are drawn
    1024 at a time so that the N x M SI stacks stay small."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    gen = RngHandle(cfg.seed).generator()
    chunk = 1024
    out = []
    for start in range(0, cfg.trials, chunk):
        n = min(chunk, cfg.trials - start)
        H_si = generate_batch(n, N, M, cfg.si_spec, gen)
        V = _zf(zf_precoder_batch, generate_batch(n, K, M, RAYLEIGH, gen))
        W = _zf(zf_decoder_batch, generate_batch(n, N, K, RAYLEIGH, gen))
        out.append(np.sum(np.abs(W[:, :1] @ H_si @ V) ** 2, axis=(1, 2)))
    return np.concatenate(out)


def _full_chain_sinr(cfg):
    """Stream layout 1 of run_sinr: every link drawn as its full matrix."""
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N
    noise_spec = RicianSpec(0.0, np.sqrt(cfg.noise_power))
    parts = []
    for b, n in mc._blocks(cfg.trials):
        gen = RngHandle(cfg.seed, b).generator()

        def draw(rows, cols, spec=RAYLEIGH):
            return generate_batch(n, rows, cols, spec, gen)

        if cfg.direction is Direction.DOWNLINK:
            H_own = draw(K, M)
            G = H_own @ _zf(zf_precoder_batch, H_own)
            ici = 0.0
            for _ in range(L - 1):
                V_j = _zf(zf_precoder_batch, draw(K, M))
                ici = ici + mc._sq(draw(K, M) @ V_j).sum(axis=2)
            cmi = mc._sq(draw(K, L * K - 1)).sum(axis=2)
            si = mc._sq(draw(K, 1, cfg.si_spec))[:, :, 0]
            noise = mc._sq(draw(K, 1, noise_spec))[:, :, 0]
        else:
            H_up = draw(N, K)
            W = _zf(zf_decoder_batch, H_up)
            G = W @ H_up
            V_own = _zf(zf_precoder_batch, draw(K, M))
            H_si = draw(N, M, cfg.si_spec)
            ici = mc._sq(W @ draw(N, K * (L - 1))).sum(axis=2)
            cmi = 0.0
            for _ in range(L - 1):
                V_j = _zf(zf_precoder_batch, draw(K, M))
                cmi = cmi + mc._sq(W @ draw(N, M) @ V_j).sum(axis=2)
            si = mc._sq(W @ H_si @ V_own).sum(axis=2)
            noise = mc._sq(W @ draw(N, 1, noise_spec))[:, :, 0]
        parts.append(mc._terms(G, ici, cmi, si, noise, 0))
    return {k: np.concatenate([p[k] for p in parts]) for k in mc._TERM_KEYS}


KS_TRIALS = 20_000


@pytest.mark.parametrize("K, M, N", [
    pytest.param(1, 16, 8, id="1"),
    pytest.param(3, 16, 8, id="3"),
    (8, 64, 32),
    (2, 2, 2),  # M = K: s = 0
    (4, 4, 4),
    (1, 4, 1),  # N = 1: a = 1
])
def test_si_empirical_matches_full_chain(K, M, N):
    cfg = _cfg(K=K, M=M, N=N, trials=KS_TRIALS, seed=70)
    ref = _full_chain_si(replace(cfg, seed=71))
    assert ks_2samp(run_si_empirical(cfg).samples, ref).pvalue > 0.01


# The terms drawn through ``_sandwich``, and the SINR they enter.  The other
# terms keep their draw (useful, mui: bit for bit, checked below).
SANDWICH_TERMS = {
    Direction.DOWNLINK: ("ici", "sinr"),
    Direction.UPLINK: ("ici", "cmi", "si", "noise", "sinr"),
}


@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_sinr_terms_match_full_chain(direction):
    cfg = _cfg(L=2, K=2, M=8, N=4, trials=KS_TRIALS, seed=72, noise_power=0.5,
               direction=direction)
    got = run_sinr(cfg)
    # one radio per trial: the K radios of a trial share their beamformers
    ref = _full_chain_sinr(replace(cfg, seed=73))
    for key in SANDWICH_TERMS[direction]:
        assert ks_2samp(got[key][:, 0], ref[key][:, 0]).pvalue > 0.01, key
    # H_own and H_up are still drawn first, in full: useful and mui keep their bits
    same_seed = _full_chain_sinr(cfg)
    for key in ("useful", "mui"):
        assert np.array_equal(got[key], same_seed[key]), key
