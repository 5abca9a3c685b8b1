import numpy as np
import pytest
from scipy import integrate

from fdsim import (
    GammaParams,
    InvalidParameterError,
    RicianSpec,
    RngHandle,
    gamma_cdf,
    gamma_pdf,
    gamma_siso,
    histogram,
    ks_distance,
    rician_from_factor,
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

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(-1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(1.0, -0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            si_pdf_siso(1.0, 0.5, 0.0)


class TestGammaLaw:
    def test_cdf_saturates(self):
        assert gamma_cdf(1e6, GammaParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_cdf_exponential_point(self):
        assert gamma_cdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(
            1 - np.exp(-1), abs=1e-12
        )

    def test_pdf_mean_by_quadrature(self):
        p = GammaParams(25 / 24, 1.2)
        mean, _ = integrate.quad(lambda t: t * gamma_pdf(t, p), 0, 100, limit=200)
        assert mean == pytest.approx(1.25, abs=1e-6)

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


class TestKsDistance:
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
        d = ks_distance(s, lambda x: gamma_cdf(x, p))
        assert 0.003 <= d <= 0.007

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            ks_distance([], lambda x: x)


class TestHistogram:
    def test_single_sample(self):
        h = histogram([2.0], 4)
        assert h.total == 1
        assert h.counts.sum() == 1
        assert np.count_nonzero(h.counts) == 1

    def test_counts_sum_to_total(self):
        s = RngHandle(35, 0).generator().gamma(1.0, 1.0, size=10_000)
        h = histogram(s, 32)
        assert h.counts.sum() == h.total == 10_000
        assert np.all(np.diff(h.bin_edges) > 0)

    def test_frequencies_match_cdf_increments(self):
        p = GammaParams(1.0, 1.0)
        n = 1_000_000
        s = RngHandle(36, 0).generator().gamma(p.kappa, p.theta, size=n)
        h = histogram(s, 100)
        expected = n * np.diff(gamma_cdf(h.bin_edges, p))
        mask = expected >= 1000
        assert mask.any()
        rel = np.abs(h.counts[mask] - expected[mask]) / expected[mask]
        assert np.max(rel) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram([], 4)
        with pytest.raises(InvalidParameterError):
            histogram([1.0], 0)
