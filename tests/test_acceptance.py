"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (visible even under
pytest capture).  The Monte Carlo criteria reuse two shared 1e6-trial runs
at the reference configuration M=16, N=8, mu=0.5, nu=1.
"""
import numpy as np
import pytest

from fdsim import (
    ExperimentConfig,
    RicianSpec,
    SpecialCase,
    SystemGeometry,
    gamma_cdf,
    gamma_mimo,
    gamma_siso,
    gamma_special,
    ks_distance,
    moment1,
    moment2,
    rician_from_factor,
    run_si_empirical,
    si_pdf_siso,
    si_variance,
)
from fdsim.channel import RAYLEIGH, RngHandle, generate_batch
from fdsim.cli import main as cli_main
from scipy import integrate

from beamforming import zf_decoder_batch, zf_precoder_batch

SPEC = RicianSpec(0.5, 1.0)
TRIALS = 1_000_000
THREADS = 4


def _announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def run_k1():
    cfg = ExperimentConfig(
        geom=SystemGeometry(L=1, K=1, M=16, N=8), si_spec=SPEC,
        trials=TRIALS, seed=11,
    )
    return run_si_empirical(cfg, threads=THREADS)


@pytest.fixture(scope="module")
def run_k3():
    cfg = ExperimentConfig(
        geom=SystemGeometry(L=1, K=3, M=16, N=8), si_spec=SPEC,
        trials=TRIALS, seed=11,
    )
    return run_si_empirical(cfg, threads=THREADS)


def test_criterion_1_mean_identity(capsys):
    worst = 0.0
    for M, N, K in [(16, 8, 1), (16, 8, 3), (8, 8, 4), (4, 2, 2)]:
        for mu, nu in [(0.0, 1.0), (0.5, 1.0), (1.0, 0.5)]:
            geom = SystemGeometry(L=1, K=K, M=M, N=N)
            spec = RicianSpec(mu, nu)
            p = gamma_mimo(geom, spec)
            target = K * (mu**2 + nu**2)
            worst = max(worst, abs(p.mean - target) / target)
    _announce(capsys, 1, worst <= 1e-12, f"max rel err {worst:.3e} <= 1e-12")


def test_criterion_2_variance_identity(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        M = int(rng.integers(1, 64))
        N = int(rng.integers(1, 64))
        K = int(rng.integers(1, min(M, N) + 1))
        mu = float(rng.uniform(0.0, 3.0))
        nu = float(rng.uniform(0.05, 3.0))
        geom = SystemGeometry(L=1, K=K, M=M, N=N)
        spec = RicianSpec(mu, nu)
        direct = si_variance(geom, spec)
        derived = moment2(geom, spec) - moment1(K, spec) ** 2
        worst = max(worst, abs(direct - derived) / direct)
    _announce(capsys, 2, worst <= 1e-9, f"max rel err {worst:.3e} <= 1e-9 over 200 points")


def test_criterion_3_monte_carlo_moments(capsys, run_k1, run_k3):
    checks = []
    for rep, K in [(run_k1, 1), (run_k3, 3)]:
        geom = SystemGeometry(L=1, K=K, M=16, N=8)
        m1_err = abs(rep.emp_m1 - moment1(K, SPEC)) / moment1(K, SPEC)
        m2_err = abs(rep.emp_m2 - moment2(geom, SPEC)) / moment2(geom, SPEC)
        checks.append((K, m1_err, m2_err))
    ok = all(e1 <= 0.01 and e2 <= 0.03 for _, e1, e2 in checks)
    detail = "; ".join(
        f"K={K}: m1 err {e1:.4%} (<=1%), m2 err {e2:.4%} (<=3%)" for K, e1, e2 in checks
    )
    _announce(capsys, 3, ok, detail)


def test_criterion_4_distribution_fit(capsys, run_k1, run_k3):
    ks1 = run_k1.ks
    ks3 = run_k3.ks
    ok = ks1 <= 0.01 and ks3 <= 0.03 and ks1 < ks3
    _announce(
        capsys, 4, ok,
        f"KS K=1 {ks1:.5f} <= 0.01; KS K=3 {ks3:.5f} <= 0.03; monotone {ks1 < ks3}",
    )


def test_criterion_5_zf_distribution_facts(capsys):
    M, N, K = 16, 8, 3
    trials = TRIALS
    block = 100_000
    pre, dec = [], []
    for b in range(trials // block):
        g = RngHandle(202, b).generator()
        Hd = generate_batch(block, K, M, RAYLEIGH, g)
        V, bad = zf_precoder_batch(Hd)
        assert not bad.any()
        pre.append(np.abs(np.einsum("bkk->bk", Hd @ V)) ** 2)
        Hu = generate_batch(block, N, K, RAYLEIGH, g)
        W, bad = zf_decoder_batch(Hu)
        assert not bad.any()
        dec.append(np.abs(np.einsum("bkk->bk", W @ Hu)) ** 2)
    pre = np.concatenate(pre).ravel()
    dec = np.concatenate(dec).ravel()
    errs = [
        abs(pre.mean() - (M - K + 1)) / (M - K + 1),
        abs(pre.var() - (M - K + 1)) / (M - K + 1),
        abs(dec.mean() - (N - K + 1)) / (N - K + 1),
        abs(dec.var() - (N - K + 1)) / (N - K + 1),
    ]
    ok = max(errs) <= 0.01
    _announce(
        capsys, 5, ok,
        f"|hv|^2 mean/var rel err {errs[0]:.4%}/{errs[1]:.4%}, "
        f"|wh|^2 {errs[2]:.4%}/{errs[3]:.4%}, all <= 1%",
    )


def test_criterion_6_siso_law(capsys):
    worst = 0.0
    for varpi, omega in [(0.0, 1.0), (0.25, 1.25), (1.0, 2.0), (10.0, 4.0)]:
        total, _ = integrate.quad(
            lambda t: si_pdf_siso(t, varpi, omega), 0, 50 * omega, limit=200
        )
        mean, _ = integrate.quad(
            lambda t: t * si_pdf_siso(t, varpi, omega), 0, 60 * omega, limit=200
        )
        m2, _ = integrate.quad(
            lambda t: t * t * si_pdf_siso(t, varpi, omega), 0, 80 * omega, limit=200
        )
        p = gamma_siso(rician_from_factor(varpi, omega))
        worst = max(
            worst,
            abs(total - 1.0),
            abs(mean - omega),
            abs(p.mean - mean),
            abs(p.variance - (m2 - mean**2)),
        )
    _announce(capsys, 6, worst <= 1e-6, f"max abs dev {worst:.2e} <= 1e-6")


def test_criterion_7_special_case_consistency(capsys):
    worst_su = 0.0
    for M, N in [(16, 8), (4, 4), (32, 2)]:
        geom = SystemGeometry(L=1, K=1, M=M, N=N)
        p = gamma_mimo(geom, SPEC)
        q = gamma_special(SpecialCase.SINGLE_USER, geom, SPEC)
        worst_su = max(
            worst_su,
            abs(p.kappa - q.kappa) / q.kappa,
            abs(p.theta - q.theta) / q.theta,
        )
    geom = SystemGeometry(L=1, K=2, M=2048, N=2048)
    p = gamma_mimo(geom, SPEC)
    q = gamma_special(SpecialCase.MASSIVE_MIMO, geom, SPEC)
    mm_err = max(abs(p.kappa - q.kappa) / q.kappa, abs(p.theta - q.theta) / q.theta)
    # documented Table-verbatim Rayleigh row with max(N, M)
    r = gamma_special(
        SpecialCase.RAYLEIGH_CHANNEL,
        SystemGeometry(L=1, K=2, M=4, N=8),
        RicianSpec(0.0, 1.0),
    )
    ray_ok = r.kappa == pytest.approx(2 * 8 / 9) and r.theta == pytest.approx(9 / 8)
    ok = worst_su <= 1e-12 and mm_err <= 0.005 and ray_ok
    _announce(
        capsys, 7, ok,
        f"single-user rel err {worst_su:.2e} <= 1e-12; massive-MIMO rel err "
        f"{mm_err:.4%} <= 0.5%; Rayleigh row verbatim {ray_ok}",
    )


def test_criterion_8_reproducibility_across_threads(capsys, tmp_path):
    outs = {}
    for threads in (1, 8):
        out = str(tmp_path / f"t{threads}.csv")
        rc = cli_main([
            "si", "--M", "16", "--N", "8", "--K", "2", "--mu", "0.5", "--nu", "1",
            "--trials", "50000", "--seed", "77", "--mode", "both",
            "--threads", str(threads), "--out", out,
        ])
        assert rc == 0
        outs[threads] = b"".join(
            (tmp_path / f"t{threads}_{sfx}.csv").read_bytes()
            for sfx in ("empirical", "theoretical", "summary")
        )
    ok = outs[1] == outs[8]
    _announce(capsys, 8, ok, "CSV output byte-identical for 1 vs 8 worker threads")
