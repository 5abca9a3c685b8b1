import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fdsim import (
    ExperimentConfig,
    GammaParams,
    InvalidParameterError,
    RicianSpec,
    RngHandle,
    SystemGeometry,
    gamma_cdf,
    gamma_mimo,
    gamma_pdf,
    gamma_siso,
    histogram,
    ks_distance,
    rician_from_factor,
    run_si_empirical,
    run_si_theoretical,
    si_pdf_siso,
)
from fdsim.channel import generate_batch

PAIRS = [(0.0, 0.5), (0.0, 1.0), (0.25, 1.25), (1.0, 2.0), (10.0, 4.0), (0.25, 0.5)]


class TestSisoPdf:
    def test_rayleigh_reduces_to_exponential(self):
        x = np.linspace(0, 10, 101)
        assert np.allclose(si_pdf_siso(x, 0.0, 1.0), np.exp(-x), rtol=1e-12)

    @pytest.mark.parametrize("varpi,omega", PAIRS)
    def test_normalization(self, varpi, omega):
        total, _ = integrate.quad(
            lambda t: si_pdf_siso(t, varpi, omega), 0, 50 * omega, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("varpi,omega", PAIRS)
    def test_mean_equals_omega(self, varpi, omega):
        mean, _ = integrate.quad(
            lambda t: t * si_pdf_siso(t, varpi, omega), 0, 60 * omega, limit=200
        )
        assert mean == pytest.approx(omega, abs=1e-6)

    @pytest.mark.parametrize("varpi,omega", PAIRS)
    def test_gamma_matching_preserves_both_moments(self, varpi, omega):
        # quadrature moments of the non-central chi-squared law vs Gamma
        p = gamma_siso(rician_from_factor(varpi, omega))
        mean, _ = integrate.quad(
            lambda t: t * si_pdf_siso(t, varpi, omega), 0, 60 * omega, limit=200
        )
        m2, _ = integrate.quad(
            lambda t: t * t * si_pdf_siso(t, varpi, omega), 0, 80 * omega, limit=200
        )
        assert p.mean == pytest.approx(mean, abs=1e-6)
        assert p.variance == pytest.approx(m2 - mean**2, abs=1e-6)

    def test_large_rician_factor_finite(self):
        vals = si_pdf_siso(np.linspace(0, 20, 50), 1e4, 2.0)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("varpi", [0.0, 0.5, 1e4])
    def test_edge_values(self, varpi):
        # the density is 0 at x = inf, not inf - inf; warnings are errors here
        assert si_pdf_siso(np.inf, varpi, 1.0) == 0.0
        got = si_pdf_siso([0.0, np.inf, np.nan], varpi, 1.0)
        assert got[0] == pytest.approx((1 + varpi) * math.exp(-varpi), rel=1e-15, abs=0)
        assert got[1] == 0.0 and np.isnan(got[2])

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(-1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(1.0, -0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(1.0, 0.5, 0.0)

    def test_scaled_bessel_factor_matches_scipy(self):
        from fdsim.stats import _i0e  # np.i0 below z = 700, the asymptotic series from 700 on

        for z in (np.linspace(0, 700, 700_001), np.geomspace(700, 1e300, 100_001)):
            assert np.max(np.abs(_i0e(z) / special.i0e(z) - 1)) < 1e-14

    @pytest.mark.parametrize("omega", [1.0, 2.0, 0.3])
    def test_matches_mpmath_up_to_varpi_100(self, omega):
        for varpi in (0.0, 0.5, 1.0, 10.0, 100.0):
            x = _siso_grid(varpi, omega)
            ref = np.array([_siso_pdf_mp(t, varpi, omega) for t in x])
            assert np.max(np.abs(si_pdf_siso(x, varpi, omega) / ref - 1)) < 2e-14

    @pytest.mark.parametrize("varpi", [1e4, 1e8, 1e12, 1e16, 1e150, 1e200])
    def test_matches_mpmath_at_large_rician_factors(self, varpi):
        # 1e-13 where x/omega rounds exactly, as at a power of 2; elsewhere its
        # rounding adds up to |a - b| sqrt(varpi) 2^-53, a = sqrt(varpi) and
        # b = sqrt((1+varpi) x/omega)
        for omega, rounding in ((1.0, 0.0), (2.0, 0.0), (0.3, 2.0**-53)):
            x = _siso_grid(varpi, omega)
            ref = np.array([_siso_pdf_mp(t, varpi, omega) for t in x])
            a_b = np.abs(math.sqrt(varpi) - np.sqrt(x / omega * (1 + varpi)))
            bound = 1e-13 + a_b * math.sqrt(varpi) * rounding
            assert np.all(np.abs(si_pdf_siso(x, varpi, omega) / ref - 1) < bound)

    def test_extreme_arguments(self):
        # warnings are errors here
        assert si_pdf_siso(1.0, 1e150, 1.0) == pytest.approx(2.8209479177387814e74, rel=1e-13)
        assert si_pdf_siso(1.0, 1e200, 1.0) == pytest.approx(2.8209479177387814e99, rel=1e-13)
        assert si_pdf_siso(1.0, 1e110, 1e200) == 0.0
        # x/omega overflows: the density is 0, not inf - inf or 0 inf
        assert si_pdf_siso([1e300, np.inf], 0.0, 1e-10).tolist() == [0.0, 0.0]
        assert si_pdf_siso([1e300, np.inf], 1e200, 1e-10).tolist() == [0.0, 0.0]
        assert si_pdf_siso(0.0, 0.0, 2.0) == 0.5


def _siso_grid(varpi: float, omega: float) -> np.ndarray:
    """Up to 41 points where the SISO density is not negligible: to five
    standard deviations either side of the mean omega at large varpi."""
    if varpi <= 10:
        return omega * np.linspace(0, 6, 41)
    if varpi <= 100:
        return omega * np.linspace(0.3, 1.8, 41)
    # past varpi = 1e32 the spread nears an ulp of omega, and points repeat
    return np.unique(omega * (1 + 5 * math.sqrt(2 / varpi) * np.linspace(-1, 1, 41)))


def _siso_pdf_mp(x: float, varpi: float, omega: float) -> float:
    """The SISO density from the exact float arguments, by the definition.

    Its exponent's terms of order varpi cancel to O(1), so the precision
    grows with varpi.
    """
    with mpmath.workdps(30 + int(math.log10(1 + varpi))):
        x, varpi, omega = mpmath.mpf(x), mpmath.mpf(varpi), mpmath.mpf(omega)
        z = 2 * mpmath.sqrt(varpi * (1 + varpi) * x / omega)
        pref = (1 + varpi) / omega * mpmath.exp(-(varpi + (1 + varpi) * x / omega))
        return float(pref * mpmath.besseli(0, z))


class TestGammaLaw:
    def test_cdf_saturates(self):
        assert gamma_cdf(1e6, GammaParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_cdf_exponential_point(self):
        assert gamma_cdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(
            1 - np.exp(-1), abs=1e-12
        )

    @pytest.mark.parametrize("kappa", np.logspace(-3, 6, 19))
    def test_cdf_matches_the_incomplete_gamma(self, kappa):
        # at the law's quantiles 1e-7 .. 1 - 1e-7, both sides of the series'
        # scale change at kappa + 1 + 3 sqrt(kappa), and the edge values
        q = np.concatenate([
            np.logspace(-7, -1, 13), np.linspace(0.15, 0.85, 15), 1 - np.logspace(-1, -7, 13),
        ])
        cut = kappa + 1 + 3 * math.sqrt(kappa)
        x = np.concatenate([special.gammaincinv(kappa, q), [cut, np.nextafter(cut, 0)]])
        got = gamma_cdf(x * 2.0, GammaParams(kappa, 2.0))
        assert np.max(np.abs(got - _incomplete_gamma(kappa, x))) <= 1e-12
        edges = gamma_cdf([0.0, np.inf, np.nan], GammaParams(kappa, 2.0))
        assert edges[:2].tolist() == [0.0, 1.0] and np.isnan(edges[2])

    @pytest.mark.parametrize("kappa", [999.9, 1e3, 1e9, 5e11, 1e15])
    def test_cdf_at_large_shapes_matches_the_incomplete_gamma(self, kappa):
        # both sides of the change to Temme's expansion at 1e3, and shapes whose
        # series would take millions of terms; within 4.5 sqrt(kappa) of kappa
        # scipy sums Temme's expansion to its full order
        x = kappa + np.linspace(-4.4, 4.4, 41) * math.sqrt(kappa)
        got = gamma_cdf(x, GammaParams(kappa, 1.0))
        assert np.max(np.abs(got - special.gammainc(kappa, x))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        log_kappa=st.floats(-3, 6),
        q=st.lists(st.floats(0, 1), min_size=2, max_size=64),
    )
    def test_cdf_is_nondecreasing(self, log_kappa, q):
        # ks_distance's pruning relies on this, to within its 1e-9 slack
        p = GammaParams(10.0**log_kappa, 1.0)
        x = np.sort(np.array(q)) * (p.kappa + 12 * math.sqrt(p.kappa) + 50)
        assert np.all(np.diff(gamma_cdf(x, p)) >= -1e-9)

    @pytest.mark.parametrize("kappa", [1e-3, 0.7, 2.41, 31.6, 1e6])
    def test_cdf_of_a_value_does_not_depend_on_the_others(self, kappa):
        # ks_distance evaluates the cdf on subsets of a sample and promises
        # the float of a full evaluation, so each value must be its x's alone
        p = GammaParams(kappa, 1.0)
        g = RngHandle(7, 0).generator()
        x = np.concatenate([
            g.gamma(kappa, size=300), kappa + g.uniform(0, 30, 40) * math.sqrt(kappa),
            [0.0, np.inf, np.nan, 1e-300],
        ])
        g.shuffle(x)
        whole = gamma_cdf(x, p)
        for at in (np.s_[::7], np.s_[3:5], x < kappa, np.s_[::-1]):
            assert np.array_equal(gamma_cdf(x[at], p), whole[at], equal_nan=True)
        assert np.array_equal([gamma_cdf(v, p) for v in x[:20]], whole[:20], equal_nan=True)

    def test_pdf_mean_by_quadrature(self):
        p = GammaParams(25 / 24, 1.2)
        mean, _ = integrate.quad(lambda t: t * gamma_pdf(t, p), 0, 100, limit=200)
        assert mean == pytest.approx(1.25, abs=1e-6)

    def test_pdf_at_zero_and_against_direct_form(self):
        for kappa, at_zero in [(0.7, np.inf), (1.0, 1 / 1.3), (2.4, 0.0)]:
            p = GammaParams(kappa, 1.3)
            assert gamma_pdf(0.0, p) == pytest.approx(at_zero, rel=1e-15, abs=0)
            x = np.linspace(0.01, 30, 301)
            direct = x ** (kappa - 1) * np.exp(-x / 1.3) / (math.gamma(kappa) * 1.3**kappa)
            assert np.allclose(gamma_pdf(x, p), direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kappa", [999.9, 1e6, 1e10, 5e11, 1e15])
    def test_pdf_at_large_shapes_against_mpmath(self, kappa):
        # theta = 1 keeps x/theta exact; x^(kappa-1) e^-x / Gamma(kappa) taken
        # apart in floats cancels here, to 1e-3 at the 5e11 that --nu 1e-6 gives
        x = kappa + np.array([-3.0, -1.0, 0.0, 1.0, 3.0]) * math.sqrt(kappa)
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            ref = np.array([
                float(mpmath.exp((k - 1) * mpmath.log(v) - v - mpmath.loggamma(k)))
                for v in map(mpmath.mpf, x)
            ])
        got = gamma_pdf(x, GammaParams(kappa, 1.0))
        assert np.max(np.abs(got / ref - 1)) <= 1e-13

    @pytest.mark.parametrize("kappa, at_zero", [
        (0.7, np.inf), (1.0, 1 / 1.3), (2.4, 0.0), (50.0, 0.0), (1e10, 0.0),
    ])
    def test_pdf_edge_values(self, kappa, at_zero):
        # with no numpy warning: warnings are errors here
        p = GammaParams(kappa, 1.3)
        got = gamma_pdf([0.0, np.inf, np.nan], p)
        assert got[:2].tolist() == [at_zero, 0.0] and np.isnan(got[2])
        assert [gamma_pdf(0.0, p), gamma_pdf(np.inf, p)] == [at_zero, 0.0]

    def test_cdf_monotone_pdf_nonnegative(self):
        p = GammaParams(0.7, 1.3)
        x = np.linspace(0, 30, 3001)
        cdf = gamma_cdf(x, p)
        assert np.all(np.diff(cdf) >= 0)
        assert np.all(gamma_pdf(x, p) >= 0)

    def test_sample_mean_unit(self):
        s = RngHandle(30, 0).generator().gamma(1.0, 1.0, size=1_000_000)
        assert s.mean() == pytest.approx(1.0, rel=0.01)

    def test_sample_mean_sub_unit_shape(self):
        # shape below 1 exercises the kappa < 1 sampling branch
        p = GammaParams(3825 / 4031, 4031 / 3060)
        s = RngHandle(31, 0).generator().gamma(p.kappa, p.theta, size=1_000_000)
        assert s.mean() == pytest.approx(1.25, rel=0.01)

    def test_sample_deterministic(self):
        p = GammaParams(2.0, 0.5)
        a = RngHandle(32, 4).generator().gamma(p.kappa, p.theta, size=1000)
        b = RngHandle(32, 4).generator().gamma(p.kappa, p.theta, size=1000)
        assert np.array_equal(a, b)


def _incomplete_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) from scipy, or from mpmath where cephes stops its series short.

    For a > 200 and x below a - 4.5 sqrt(a) cephes sums at most 2000 terms
    of the series, which leaves it 3e-11 low at a = 1e6.
    """
    ref = special.gammainc(a, x)
    for i in np.flatnonzero((a > 200) & (x < a - 4.5 * math.sqrt(a))):
        with mpmath.workdps(30):
            xi = mpmath.mpf(x[i])
            series = mpmath.hyp1f1(1, a + 1, xi, maxterms=10**6)
            ref[i] = float(mpmath.exp(a * mpmath.log(xi) - xi - mpmath.loggamma(a + 1)) * series)
    return ref


def _ks_full(samples, cdf) -> float:
    """The KS distance from a cdf evaluated at every sorted sample."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


KS_LAW = GammaParams(1.7, 0.6)


def _ks_data(kind, n, seed):
    g = RngHandle(seed, 0).generator()
    if kind == "matched":  # drawn from the reference cdf itself: the least pruning
        return g.gamma(KS_LAW.kappa, KS_LAW.theta, size=n)
    if kind == "mismatched":
        return g.exponential(KS_LAW.mean, size=n)
    if kind == "ties":
        return np.round(g.gamma(KS_LAW.kappa, KS_LAW.theta, size=n), 1)
    if kind == "all-equal":
        return np.full(n, KS_LAW.mean)
    return np.zeros(n)


class TestKsDistance:
    @pytest.mark.parametrize("kind", ["matched", "mismatched", "ties", "all-equal", "zeros"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4097, 100_000])
    def test_pruned_walk_equals_full_evaluation(self, n, kind):
        s = _ks_data(kind, n, seed=40 + n % 7)
        cdf = lambda x: gamma_cdf(x, KS_LAW)
        assert ks_distance(s, cdf) == _ks_full(s, cdf)

    @pytest.mark.parametrize("K,M,N", [(1, 16, 8), (3, 16, 8), (8, 64, 32)])
    @pytest.mark.parametrize("run", [run_si_empirical, run_si_theoretical])
    def test_engine_samples_equal_full_evaluation(self, run, K, M, N):
        cfg = ExperimentConfig(
            geom=SystemGeometry(L=1, K=K, M=M, N=N), si_spec=RicianSpec(0.5, 1.0),
            trials=65_536, seed=K,
        )
        gp = gamma_mimo(cfg.geom, cfg.si_spec)
        s = run(cfg).samples
        cdf = lambda x: gamma_cdf(x, gp)
        assert ks_distance(s, cdf) == _ks_full(s, cdf)

    def test_any_shape_is_flattened(self):
        cdf = lambda x: 1 - np.exp(-np.asarray(x))
        flat = [0.3, 1.2, 0.7, 2.5, 0.1, 0.9]
        assert ks_distance(np.reshape(flat[:3], (3, 1)), cdf) == ks_distance(flat[:3], cdf)
        assert ks_distance(np.reshape(flat, (2, 3)), cdf) == ks_distance(flat, cdf)

    def test_nan_sample_gives_nan(self):
        s = [0.5, float("nan"), 1.0]
        assert math.isnan(ks_distance(s, lambda x: gamma_cdf(x, KS_LAW)))
        assert math.isnan(_ks_full(s, lambda x: gamma_cdf(x, KS_LAW)))

    def test_self_consistency(self):
        p = GammaParams(1.0, 1.0)
        s = RngHandle(33, 0).generator().gamma(p.kappa, p.theta, size=100_000)
        assert ks_distance(s, lambda x: gamma_cdf(x, p)) <= 0.01

    def test_confidence_bound(self):
        p = GammaParams(2.5, 0.8)
        n = 100_000
        s = RngHandle(34, 0).generator().gamma(p.kappa, p.theta, size=n)
        assert ks_distance(s, lambda x: gamma_cdf(x, p)) <= 1.63 / np.sqrt(n)

    def test_degenerate_hand_case(self):
        f = 1 - np.exp(-0.5)
        d = ks_distance([0.5, 0.5], lambda x: 1 - np.exp(-np.asarray(x)))
        assert d == pytest.approx(abs(1 - f), abs=1e-15)

    def test_siso_samples_vs_matched_gamma_regression(self):
        # Gamma matching is an approximation: the KS distance converges to a
        # small nonzero constant (exact sup distance 0.004944 for this spec).
        spec = RicianSpec(0.5, 1.0)
        p = gamma_siso(spec)
        g = RngHandle(2024, 0).generator()
        s = np.abs(generate_batch(1, 1, 1_000_000, spec, g)) ** 2
        seen = []

        def cdf(x):
            assert np.all(np.diff(x) >= 0)  # values of the sorted sample, in order
            seen.append(x.size)
            return gamma_cdf(x, p)

        d = ks_distance(s, cdf)
        assert 0.003 <= d <= 0.007
        # the walk prunes: a full evaluation would see every one of the 1e6
        # values, and the README promises under 1 %
        assert sum(seen) < s.size / 100
        assert d == _ks_full(s, lambda x: gamma_cdf(x, p))

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            ks_distance([], lambda x: x)


class TestHistogram:
    def test_single_sample(self):
        s = [2.0]
        _, counts = histogram(s, 4)
        assert counts.sum() == len(s) == 1
        assert np.count_nonzero(counts) == 1

    def test_counts_sum_to_total(self):
        s = RngHandle(35, 0).generator().gamma(1.0, 1.0, size=10_000)
        bin_edges, counts = histogram(s, 32)
        assert counts.sum() == s.size == 10_000
        assert np.all(np.diff(bin_edges) > 0)

    def test_frequencies_match_cdf_increments(self):
        p = GammaParams(1.0, 1.0)
        n = 1_000_000
        s = RngHandle(36, 0).generator().gamma(p.kappa, p.theta, size=n)
        bin_edges, counts = histogram(s, 100)
        expected = n * np.diff(gamma_cdf(bin_edges, p))
        mask = expected >= 1000
        assert mask.any()
        rel = np.abs(counts[mask] - expected[mask]) / expected[mask]
        assert np.max(rel) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram([], 4)
        with pytest.raises(InvalidParameterError):
            histogram([1.0], 0)

    def test_bin_count_must_be_an_integer(self):
        for bad in (True, False, 2.0, np.float64(3.0)):
            with pytest.raises(InvalidParameterError, match="bin_count must be an integer >= 1"):
                histogram([1.0, 2.0], bad)
        for good in (3, np.int64(3), np.int32(3)):
            assert histogram([1.0, 2.0], good)[1].size == 3
