import os
import platform
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
    si_variance,
)
from fdsim.channel import RAYLEIGH, generate_batch
from fdsim.cli import main

from beamforming import zf_decoder_batch, zf_precoder_batch

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
        assert a.emp_m1 == b.emp_m1 and a.ks == b.ks


class TestSiTheoretical:
    def test_mean(self):
        rep = run_si_theoretical(_cfg(K=3, trials=200_000))
        assert rep.emp_m1 == pytest.approx(moment1(3, SPEC), rel=0.01)

    def test_ks_self_consistency(self):
        rep = run_si_theoretical(_cfg(trials=100_000))
        assert rep.ks <= 0.01

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

    @pytest.mark.parametrize("K", [1, 3])
    def test_single_cell_links_vanish(self, K):
        # L = 1: W H_x and the cross-cell sum are zero-width draws
        t = run_sinr(_cfg(K=K, trials=2000, direction=Direction.UPLINK))
        for key in ("ici", "cmi"):
            assert t[key].shape == (2000, K)
            assert np.all(t[key] == 0)


def _term_laws(direction, L, K, M, N, spec, noise):
    """(mean, variance) per stream of each SINR term, as demos/sinr_terms.py states them."""
    t2 = K * (M + 1) / (M - K + 2)  # E tr((V^H V)^2) of a ZF precoder V
    gram = (K * (L - 1), (L - 1) * t2)  # gains through another cell's precoder
    mu2, nu2 = spec.mu**2, spec.nu**2
    if direction is Direction.DOWNLINK:
        useful, ici, cmi = M - K + 1, gram, (L * K - 1,) * 2
        si = (mu2 + nu2, nu2**2 + 2 * mu2 * nu2)  # |mu + nu z|^2
    else:
        geom = SystemGeometry(L=L, K=K, M=M, N=N)
        useful, ici, cmi = N - K + 1, (K * (L - 1),) * 2, gram
        si = (moment1(K, spec), si_variance(geom, spec))  # the SI gain at (K, M, N)
    return {"useful": (useful, useful), "ici": ici, "cmi": cmi, "si": si,
            "noise": (noise, noise**2)}


@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_each_sinr_term_has_its_stated_mean_and_variance(direction):
    # one stream a trial, as the K streams of a trial share their beamformers;
    # at seed 9 every estimate lies within 2.5 SE of its law
    L, K, M, N, noise = 2, 2, 16, 8, 0.7
    t = run_sinr(_cfg(L=L, K=K, M=M, N=N, trials=200_000, seed=9, noise_power=noise,
                      direction=direction))
    assert np.all(t["mui"] == 0)
    for key, (mean, var) in _term_laws(direction, L, K, M, N, SPEC, noise).items():
        x = t[key][:, 0]
        d = x - x.mean()
        m2, m4 = np.mean(d**2), np.mean(d**4)
        z_mean = (x.mean() - mean) / np.sqrt(m2 / x.size)
        z_var = (m2 - var) / np.sqrt((m4 - m2**2) / x.size)
        assert abs(z_mean) < 4 and abs(z_var) < 4, (key, z_mean, z_var)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        _cfg(trials=0)
    with pytest.raises(InvalidParameterError):
        _cfg(noise_power=-1.0)
    for seed in (-1, 2**64, 1.0, False, True):
        with pytest.raises(InvalidParameterError, match="seed"):
            _cfg(seed=seed)
    for trials in (True, np.int64(1000), 10.0):
        with pytest.raises(InvalidParameterError, match="trials must be an integer"):
            _cfg(trials=trials)


@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_sinr_thread_count_does_not_change_results(direction):
    cfg = _cfg(M=8, N=4, K=2, L=2, trials=40_000, seed=62, direction=direction)
    ref = run_sinr(cfg, threads=1)
    for threads in (2, 4):
        got = run_sinr(cfg, threads=threads)
        assert got.keys() == ref.keys()
        for k in ref:
            assert np.array_equal(got[k], ref[k]), (threads, k)


def test_block_partition_is_layout_5():
    assert mc._blocks(20000) == [(0, 4096), (1, 4096), (2, 4096), (3, 4096), (4, 3616)]
    assert mc._blocks(4096) == [(0, 4096)]


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads):
    cfg = _cfg(trials=10)
    for run in (run_si_empirical, run_si_theoretical, run_sinr):
        with pytest.raises(InvalidParameterError, match="threads"):
            run(cfg, threads=threads)


@pytest.mark.parametrize("stop", ["raise", "interrupt"])
def test_a_stopped_run_waits_only_for_the_blocks_in_flight(monkeypatch, stop):
    monkeypatch.setattr(mc, "BLOCK_SIZE", 1)
    cfg = _cfg(trials=48)
    ran, lock = [], threading.Lock()

    def block_fn(cfg, n, gen):
        with lock:
            ran.append(n)
            first = len(ran) == 1
        if first and stop == "raise":
            raise RuntimeError("first block fails")
        if first:  # Ctrl-C reaches the main thread, which waits on the pool
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.1)
        return np.zeros(n)

    # Python installs no SIGINT handler where it starts with SIGINT ignored, as
    # a background job does; the test's own handler raises KeyboardInterrupt
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(RuntimeError if stop == "raise" else KeyboardInterrupt):
            mc._map_blocks(cfg, block_fn, threads=2, out=np.empty(cfg.trials))
    finally:
        signal.signal(signal.SIGINT, handler)
    started = len(ran)
    time.sleep(0.3)
    # the blocks in flight on the two workers end; the queued ones never start
    assert len(ran) == started < 10


@pytest.mark.parametrize("threads, most", [(1, 1), (8, 3)])
def test_every_run_goes_through_the_pool(monkeypatch, threads, most):
    # the pool is the calling thread and its helper threads; one thread starts no helper
    monkeypatch.setattr(mc, "BLOCK_SIZE", 4)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(64)))
    helpers, workers = [], []

    class Counting(threading.Thread):
        def __init__(self, *args, **kwargs):
            helpers.append(self)
            super().__init__(*args, **kwargs)

    def block_fn(cfg, n, gen):
        workers.append(threading.get_ident())
        time.sleep(0.05)  # holds its worker, so a helper takes the next block
        return np.zeros(n)

    monkeypatch.setattr(threading, "Thread", Counting)
    mc._map_blocks(_cfg(trials=12), block_fn, threads=threads, out=np.empty(12))
    assert len(helpers) == most - 1
    assert not any(h.is_alive() for h in helpers)
    assert len(workers) == 3
    assert set(workers) <= {threading.main_thread().ident} | {h.ident for h in helpers}
    if threads == 1:
        assert workers == [threading.main_thread().ident] * 3


@pytest.mark.parametrize("threads, cpus, workers", [
    (5000, 2, 2),    # the usable CPUs bound a large --threads
    (5000, 64, 10),  # then the blocks
    (3, 64, 3),      # then the thread count itself
])
def test_pool_workers_are_clamped(monkeypatch, threads, cpus, workers):
    # the calling thread counts among the workers
    monkeypatch.setattr(mc, "BLOCK_SIZE", 4)  # 40 trials are 10 blocks
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    helpers = []

    class Recorder:  # stands in for a helper thread and starts none
        def __init__(self, target):
            helpers.append(target)

        def start(self):
            pass

        def is_alive(self):
            return False

    monkeypatch.setattr(threading, "Thread", Recorder)
    out = np.zeros(40)
    mc._map_blocks(_cfg(trials=40), lambda cfg, n, gen: n, threads=threads, out=out)
    assert len(helpers) + 1 == workers
    assert out.tolist() == [4] * 40


def test_a_helper_error_surfaces_after_the_caller_runs_out_of_blocks(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK_SIZE", 4)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1})
    in_helper, drained = threading.Event(), threading.Event()
    blocks = mc._blocks

    class Blocks(list):  # sets `drained` once a worker finds no block left
        def __iter__(self):
            yield from list.__iter__(self)
            drained.set()

    def block_fn(cfg, n, gen):
        if threading.current_thread() is threading.main_thread():
            assert in_helper.wait(5)  # the helper holds the other block
            return np.zeros(n)
        in_helper.set()
        assert drained.wait(5)  # the caller has taken the last block and found none left
        raise RuntimeError("helper block fails")

    monkeypatch.setattr(mc, "_blocks", lambda trials: Blocks(blocks(trials)))
    with pytest.raises(RuntimeError, match="helper block fails"):
        mc._map_blocks(_cfg(trials=8), block_fn, threads=2, out=np.empty(8))
    assert drained.is_set()


def test_workers_take_every_block_exactly_once(monkeypatch):
    # more workers than cores, switching often: a block taken twice or never shows
    monkeypatch.setattr(mc, "BLOCK_SIZE", 1)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(64)))
    cfg, calls = _cfg(trials=3000), []

    def block_fn(cfg, n, gen):
        calls.append(n)
        return gen.random(n)

    out = np.full(cfg.trials, np.nan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mc._map_blocks(cfg, block_fn, threads=8, out=out)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == cfg.trials
    expected = [RngHandle(cfg.seed, b).generator().random() for b in range(cfg.trials)]
    assert out.tolist() == expected


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_one_worker_does_not_refault_its_blocks():
    # the block's whole draw, tried and freed before the first block, raises
    # glibc's trim threshold above a block's heap use, so the calling thread's
    # heap keeps one block's pages between blocks; when it was trimmed after
    # each block, 5 blocks took about 4,400 minor faults against 900 for one
    code = """
import resource
from fdsim import ExperimentConfig, RicianSpec, SystemGeometry, run_si_empirical
for trials in (4096, 5 * 4096):
    cfg = ExperimentConfig(geom=SystemGeometry(L=1, K=8, M=64, N=32),
                           si_spec=RicianSpec(0.5, 1.0), trials=trials, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_si_empirical(cfg, threads=1)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, five = map(int, proc.stdout.split())
    assert five < 1.5 * one, (one, five)


def test_engine_reaches_traced_names_through_module_globals(monkeypatch):
    # perfbench times each layer by replacing these fdsim.mc attributes; a
    # call that bypasses the module global hides its span
    names = ("_blocks", "generate_batch", "gamma_mimo", "ks_distance", "gamma_cdf")
    calls = {name: [] for name in names}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(1)
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(mc, name, counting(name, getattr(mc, name)))
    monkeypatch.setattr(mc, "BLOCK_SIZE", 256)  # three blocks over two workers
    cfg = _cfg(K=2, L=2, trials=600)
    expected = [
        (run_si_empirical, cfg, set(names)),
        (run_si_theoretical, cfg, set(names) - {"generate_batch"}),
        (run_sinr, cfg, {"_blocks", "generate_batch"}),
        (run_sinr, replace(cfg, direction=Direction.UPLINK), {"_blocks", "generate_batch"}),
    ]
    for run, run_cfg, reached in expected:
        for c in calls.values():
            c.clear()
        run(run_cfg, threads=2)
        assert {name for name, c in calls.items() if c} == reached, run.__name__
        assert len(calls["_blocks"]) == 1, run.__name__


# ---------------------------------------------------------------------------
# run_si_empirical and run_sinr draw no channel matrix: they sample the
# exact law of the ZF chain from the Bartlett factors of its channels.  The
# full chain, which draws every H and runs the ZF kernels, is kept here as
# the reference.


def test_normals_per_trial(monkeypatch):
    # every variate the engine draws, by kind: a return to drawing channel
    # matrices shows here, and a Beta or any other new kind of variate fails
    # on the proxy, which draws only normals and Gamma variates
    drawn = {"normal": 0, "gamma": 0}

    def counted(kind, draw):
        def call(*args, **kwargs):
            out = draw(*args, **kwargs)
            drawn[kind] += out.size
            return out
        return call

    class Counting:
        # layout 10: every normal comes from standard_normal(out=...), sized by its out=
        def __init__(self, gen):
            self.standard_normal = counted("normal", gen.standard_normal)
            self.gamma = counted("gamma", gen.gamma)

        def normal(self, *args, **kwargs):
            raise AssertionError("the engine draws no normal outside generate_batch")

    class CountingHandle(RngHandle):
        def generator(self):
            return Counting(super().generator())

    tried = []  # the complex normals a trial that each run's _try_draw receives
    real_try = mc._try_draw

    def count(run, cfg):
        drawn.update(normal=0, gamma=0)
        tried.clear()
        run(cfg)
        # the try holds every normal a block draws, so its count keeps one source
        if run is not run_si_theoretical:
            assert tried == [drawn["normal"] / (2 * cfg.trials)], run.__name__
        return drawn["normal"], drawn["gamma"]

    monkeypatch.setattr(mc, "RngHandle", CountingHandle)
    monkeypatch.setattr(mc, "_try_draw", lambda cfg, n: real_try(cfg, n) or tried.append(n))
    K, M, N, T = 3, 16, 8, 1000
    # layout 9: T, g and z, and g of w_1^T 1; the diagonal of T, s of q and of w_1^T 1
    assert count(run_si_empirical, _cfg(K=K, M=M, N=N, trials=T)) == (
        T * (K * (K - 1) + 4 * K + 2), T * (K + 2)
    )
    assert count(run_si_theoretical, _cfg(K=K, M=M, N=N, trials=T)) == (0, T)
    for L, K in [(2, 2), (3, 3), (1, 2)]:
        # layout 4 uplink: L + 1 Bartlett factors, g and g', Z for W H_si V_own,
        # W H_x and each W H_cross V_j, z for W eta; the L + 1 diagonals, s and s'
        per_trial = (L + 1) * K * (K - 1) + 4 * K + 2 * K * K * (2 * L - 1) + 2 * K
        cfg = _cfg(L=L, K=K, M=16, N=8, trials=T, direction=Direction.UPLINK)
        assert count(run_sinr, cfg) == (T * per_trial, T * ((L + 1) * K + 2))
        # layout 4 downlink: L Bartlett factors, Z for each H_cross V_j, the
        # cross-mode and SI scalars; layout 6: z for the noise, even at power 0
        per_trial = (
            L * K * (K - 1) + 2 * K * K * (L - 1) + 2 * K * (L * K - 1) + 2 * K + 2 * K
        )
        cfg = _cfg(L=L, K=K, M=16, N=8, trials=T, noise_power=0.0)
        assert count(run_sinr, cfg) == (T * per_trial, T * L * K)


def _bartlett_t(n, K, M, gen):
    """The Bartlett factors T that `mc._zf_draw` draws from ``gen``, formed
    from the same draws, trials first."""
    T = np.zeros((n, K, K), dtype=complex)
    cols, rows = np.triu_indices(K, 1)  # below the diagonal, column by column
    T[:, rows, cols] = generate_batch(1, rows.size, n, RAYLEIGH, gen)[0].T
    T[:, range(K), range(K)] = np.sqrt(
        gen.gamma(np.arange(M, M - K, -1)[:, None], size=(K, n))
    ).T
    return T


def _zf_dense(below, diag_inv):
    """``R = T^-1 D`` (trials first) and ``D^2`` of `mc._zf_draw`'s factors:
    the identity rows e_i, fed through `mc._zf_solve`, come back as e_i T^-1."""
    K, n = diag_inv.shape
    x = np.repeat(np.eye(K, dtype=complex)[:, :, None], n, axis=2)  # x[:, i] = e_i
    norm2 = mc._zf_solve(below, diag_inv, x)
    return (x / np.sqrt(norm2[:, None])).T, 1 / norm2.T


def _zf_solve_reference(below, diag_inv, x):
    """`mc._zf_solve` as stream layout 11 first wrote it: each sum a generator
    summed by Python's `sum()` from int 0, each term and partial sum a fresh array."""
    K, n = diag_inv.shape
    norm2 = np.empty((K, n))
    for k in range(K):
        col = [diag_inv[k]]  # X[k:, k]
        for l in range(k + 1, K):  # X[l, k]; `below` holds T's columns one after another
            terms = (below[m * (2 * K - m - 1) // 2 + l - m - 1] * col[m - k] for m in range(k, l))
            col.append(sum(terms) * -diag_inv[l])
        norm2[k] = sum(v.real**2 + v.imag**2 for v in col)  # ||X e_k||^2
        x[k] = sum(x[l] * v for l, v in enumerate(col, k))  # reads only x[k:]
    return norm2


def _walked_rows(K, n, gen):
    """Every kind of stack the engine walks, drawn from ``gen``."""
    return {
        "row": generate_batch(1, K, n, SPEC, gen)[0],  # the `si` block's one 1 x K row
        "strided": generate_batch(K, K, n, SPEC, gen).swapaxes(0, 1),  # the uplink's W side
        "no rows": np.empty((K, 0, n), complex),  # the downlink's D^2
    }


@pytest.mark.parametrize("n", [mc.BLOCK_SIZE, 3616])
@pytest.mark.parametrize("K", [1, 2, 3, 8, 16])
def test_walk_matches_the_reference_bit_for_bit(K, n):
    # the in-place walk keeps every operation's operands and order; it takes
    # each sum's first term as is, where `sum()` adds it to int 0, which can
    # only flip the sign of a zero, and a continuous draw holds none
    below, diag_inv = mc._zf_draw(n, K, 64, RngHandle(84, K).generator())
    drawn = below.tobytes(), diag_inv.tobytes()
    got = _walked_rows(K, n, RngHandle(85, K).generator())
    want = _walked_rows(K, n, RngHandle(85, K).generator())
    for name, x in got.items():
        norm2 = mc._zf_solve(below, diag_inv, x)
        assert norm2.tobytes() == _zf_solve_reference(below, diag_inv, want[name]).tobytes(), name
        assert x.tobytes() == want[name].tobytes(), name
    assert (below.tobytes(), diag_inv.tobytes()) == drawn  # T_up is walked again


@pytest.mark.parametrize("K", range(1, 9))
def test_bartlett_inverse_matches_lapack(K):
    # forward substitution on the packed draws; the reference forms T from the
    # same substream's draws, inverts it with LAPACK and scales its columns
    n = 2000
    for M in (K, K + 3, 64):
        R, d2 = _zf_dense(*mc._zf_draw(n, K, M, RngHandle(80, M).generator()))
        inv = np.linalg.inv(_bartlett_t(n, K, M, RngHandle(80, M).generator()))
        norms = np.linalg.norm(inv, axis=1)  # ||T^-1 e_k||
        ref = inv / norms[:, None, :]
        err = np.linalg.norm(R - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() <= 1e-12, (K, M, err.max())
        d2_err = np.abs(d2 * norms**2 - 1)
        assert d2_err.max() <= 1e-12, (K, M, d2_err.max())


def _si_gains_dense(cfg, n, gen):
    """An `si` block through a dense R: every draw, then ``sum |x R|^2`` with
    one stacked product over the whole block."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    R, _ = _zf_dense(*mc._zf_draw(n, K, M, gen))
    q = mc._q(n, K, M, gen)
    x = mc._si_link(mc._q(n, 1, N, gen), q, cfg.si_spec, gen)[0]
    return np.sum(np.abs(x.T[:, None, :] @ R) ** 2, axis=(1, 2))


@pytest.mark.parametrize("n", [mc.BLOCK_SIZE, 3616])
@pytest.mark.parametrize("K", [1, 3, 8, 16])
def test_chunked_si_block_matches_one_pass(K, n):
    # a whole block, full or partial, in one column-by-column `_zf_solve` pass
    # against one stacked product with the dense R (named for the chunked block)
    cfg = _cfg(K=K, M=64, N=32)
    block = mc._si_gains_block(cfg, n, RngHandle(81, K).generator())
    dense = _si_gains_dense(cfg, n, RngHandle(81, K).generator())
    assert np.allclose(block, dense, rtol=1e-12, atol=0)


def _sinr_block_lapack(cfg, n, gen):
    """Stream layout 11's SINR block from the same draws, with every R from
    LAPACK and every term a stacked product, trials first."""
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N

    def zf(dim):  # R = T^-1 D and D^2
        inv = np.linalg.inv(_bartlett_t(n, K, dim, gen))
        norm2 = mc._sq(inv).sum(axis=1)  # ||T^-1 e_k||^2
        return inv / np.sqrt(norm2[:, None, :]), 1 / norm2

    def link(rows, cols):  # a Rayleigh rows x cols link, drawn as its transpose
        return generate_batch(cols, rows, n, RAYLEIGH, gen).T

    ici = cmi = 0
    if cfg.direction is Direction.DOWNLINK:
        _, useful = zf(M)
        for _ in range(L - 1):
            R_j, _ = zf(M)
            ici = ici + mc._sq(link(K, K) @ R_j).sum(axis=2)  # H_cross V_j
        cmi = mc._sq(link(K, L * K - 1)).sum(axis=2)
        si = mc._sq(mc._si_link(np.ones((1, n)), np.ones((K, n)), cfg.si_spec, gen).T)[:, :, 0]
        noise = mc._sq(link(K, 1))[:, :, 0]
    else:
        R_up, useful = zf(N)
        q_up = mc._q(n, K, N, gen)
        R_own, _ = zf(M)
        q_own = mc._q(n, K, M, gen)
        W = R_up.swapaxes(1, 2)  # the decoder, R'^T Q'^*
        H_si = mc._si_link(q_own, q_up, cfg.si_spec, gen).T
        si = mc._sq(W @ H_si @ R_own).sum(axis=2)
        ici = mc._sq(W @ link(K, K * (L - 1))).sum(axis=2)
        for _ in range(L - 1):
            R_j, _ = zf(M)
            cmi = cmi + mc._sq(W @ link(K, K) @ R_j).sum(axis=2)  # W H_cross V_j
        noise = mc._sq(W @ link(K, 1))[:, :, 0]
    noise = cfg.noise_power * noise
    sinr = useful / (ici + cmi + si + noise)
    return dict(useful=useful, ici=ici, cmi=cmi, si=si, noise=noise, sinr=sinr)


@pytest.mark.parametrize("L, K, M, N", [(2, 2, 8, 4), (3, 3, 16, 8)])
@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_sinr_block_matches_lapack_reference(direction, L, K, M, N):
    # the same draws as one block of run_sinr, each R from np.linalg.inv
    cfg = _cfg(L=L, K=K, M=M, N=N, noise_power=0.5, direction=direction)
    block_fn = (
        mc._sinr_block_downlink if direction is Direction.DOWNLINK else mc._sinr_block_uplink
    )
    n = 3000
    got = block_fn(cfg, n, RngHandle(83, L).generator())
    ref = _sinr_block_lapack(cfg, n, RngHandle(83, L).generator())
    for key, want in ref.items():
        assert got[key].shape == (K, n), key
        assert np.allclose(got[key].T, want, rtol=1e-12, atol=0), key


def _traced_peak(fn, *args):
    """tracemalloc peak of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _si_block_peak(K, M=64, N=32):
    """tracemalloc peak of one full `si` block."""
    cfg, gen = _cfg(K=K, M=M, N=N), RngHandle(82, 0).generator()
    return _traced_peak(mc._si_gains_block, cfg, mc.BLOCK_SIZE, gen)


@pytest.mark.parametrize("argv, per_trial", [
    (["sinr", "--L", "2", "--K", "2", "--direction", "uplink"], 6 * 2 * 8),  # K terms of 6 kinds
    (["si", "--mode", "empirical"], 2 * 8),  # the gains, then KS's one sorted copy
], ids=["sinr-uplink", "si-empirical"])
def test_a_run_holds_only_its_designed_bytes_per_trial(tmp_path, argv, per_trial):
    # each block is written into the run's arrays, so no per-block copy of a
    # result is held; the peak's constant part (a block's draws, a block of
    # text, allocator caches) moves by tens of kB between runs
    def run(trials):
        assert main([*argv, "--trials", str(trials), "--out", str(tmp_path / "run.csv")]) == 0

    small, large = 2**15, 2**17
    rise = _traced_peak(run, large) - _traced_peak(run, small)
    assert rise <= per_trial * (large - small) + 2**18, rise / (large - small)


def test_si_k3_block_memory_is_bounded():
    # the si-k3 block; holding the whole K x K x n T^-1, it peaked at 1.90 MB
    peak = _si_block_peak(3, M=16, N=8)
    assert peak <= 1.5e6, peak


def test_si_block_memory_is_bounded():
    # one K = 8 block peaked at 8.65 MB with its whole-block T^-1 (16 K^2 B a trial),
    # then at 4.07 MB with a fresh array for each term of the walk's sums
    peak = _si_block_peak(8)
    assert peak <= 3.71e6, peak


@pytest.mark.parametrize("K, bound", [(16, 14e6), (32, 50e6)])
def test_si_block_memory_grows_less_than_layout_9(K, bound):
    # layout 9 held the below-diagonal draw as real half, imaginary half and
    # complex sum at once, and peaked at 15.9 MB (K = 16) and 65.1 MB (K = 32);
    # layout 10 draws it in place
    peak = _si_block_peak(K)
    assert peak <= bound, peak


@pytest.mark.parametrize("K", [8, 16])
def test_si_thread_count_does_not_change_results(K):
    # several blocks, the last one partial
    cfg = _cfg(K=K, M=64, N=32, trials=2 * mc.BLOCK_SIZE + 1000, seed=63)
    one = run_si_empirical(cfg, threads=1).samples
    assert one.tobytes() == run_si_empirical(cfg, threads=2).samples.tobytes()


def test_engine_makes_no_lapack_call(monkeypatch):
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("inv", "solve", "qr", "cholesky", "eigvalsh", "svd", "det", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, lapack)
    assert run_si_empirical(_cfg(K=8, M=64, N=32, trials=500)).samples.size == 500
    for direction in Direction:
        terms = run_sinr(_cfg(L=2, K=2, M=8, N=4, trials=500, direction=direction))
        assert np.isfinite(terms["sinr"]).all()


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_noise_is_drawn_at_unit_power_and_scaled(direction, zero):
    # layout 6: the noise is the last draw of each block, whatever noise_power is
    cfg = _cfg(M=8, N=4, K=2, L=2, trials=5000, direction=direction)
    unit = run_sinr(cfg)
    silent = run_sinr(replace(cfg, noise_power=zero))
    assert np.all(silent["noise"] == 0) and not np.signbit(silent["noise"]).any()
    for key in ("useful", "mui", "ici", "cmi", "si"):
        assert np.array_equal(silent[key], unit[key]), key
    assert np.array_equal(silent["sinr"], unit["useful"] / (unit["ici"] + unit["cmi"] + unit["si"]))
    assert np.array_equal(run_sinr(replace(cfg, noise_power=0.5))["noise"], 0.5 * unit["noise"])


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
    """Stream layout 1 of run_sinr: every link drawn as its full matrix,
    ZF beamformers from the real kernels."""
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
        g2 = mc._sq(G)
        useful = np.einsum("bkk->bk", g2)
        mui = g2.sum(axis=2) - useful
        sinr = useful / (mui + ici + cmi + si + noise)
        parts.append(dict(zip(mc.TERMS, (useful, mui, ici, cmi, si, noise, sinr))))
    return {k: np.concatenate([p[k] for p in parts]) for k in mc.TERMS}


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


# (L, K, M, N): the reference shape, M = K, N = K, and three cells
SINR_SHAPES = [(2, 2, 8, 4), (2, 2, 2, 4), (2, 2, 8, 2), (3, 2, 8, 4)]
# terms each held to p > 0.01 on their own at the reference shape
REFERENCE_TERMS = {
    Direction.DOWNLINK: ("ici", "sinr"),
    Direction.UPLINK: ("ici", "cmi", "si", "noise", "sinr"),
}


@pytest.mark.parametrize("direction", [Direction.DOWNLINK, Direction.UPLINK])
def test_sinr_terms_match_full_chain(direction):
    pvalues = {}
    for L, K, M, N in SINR_SHAPES:
        cfg = _cfg(L=L, K=K, M=M, N=N, trials=KS_TRIALS, seed=72, noise_power=0.5,
                   direction=direction)
        got = run_sinr(cfg)
        # one radio per trial: the K radios of a trial share their beamformers
        ref = _full_chain_sinr(replace(cfg, seed=73))
        # mui is exactly 0 in law; the full chain leaves only rounding
        assert np.all(got["mui"] == 0)
        assert np.all(ref["mui"] <= 1e-20 * ref["useful"]), (L, K, M, N)
        for key in mc.TERMS:
            if key != "mui":
                pvalues[L, K, M, N, key] = ks_2samp(got[key][:, 0], ref[key][:, 0]).pvalue
    for key in REFERENCE_TERMS[direction]:
        assert pvalues.pop((*SINR_SHAPES[0], key)) > 0.01, key
    # the other comparisons share a 1 % family-wise level (Bonferroni), so that
    # a correct sampler fails by chance once in a hundred seeds, not once in three
    worst = min(pvalues, key=pvalues.get)
    assert pvalues[worst] * len(pvalues) > 0.01, (worst, pvalues[worst])
