import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim import (
    ExperimentConfig,
    GammaParams,
    InvalidParameterError,
    RicianSpec,
    RngHandle,
    SpecialCase,
    SystemGeometry,
    gamma_mimo,
    gamma_siso,
    gamma_special,
    moment1,
    moment2,
    moment_match,
    run_si_empirical,
    si_variance,
)
from fdsim.channel import RAYLEIGH, generate_batch, rician_from_factor

from beamforming import zf_decoder_batch, zf_precoder_batch

geoms = st.tuples(
    st.integers(1, 64), st.integers(1, 64), st.integers(1, 16)
).filter(lambda t: t[2] <= min(t[0], t[1]))

specs = st.tuples(
    st.floats(0.0, 5.0, allow_nan=False), st.floats(0.05, 5.0, allow_nan=False)
)


def _geom(M, N, K, L=1):
    return SystemGeometry(L=L, K=K, M=M, N=N)


def _gram_m2(M, N, K, mu, nu, t2):
    """m2 = (K^2 + t2)(E|w^T 1|^4 M mu^4/(M+1) + nu^2 (2 mu^2 + nu^2)) for any
    unit-norm isotropic w and V with Gram statistic t2 = E tr((V^H V)^2)."""
    return (K * K + t2) * (
        2 * N * M * mu**4 / ((N + 1) * (M + 1)) + nu**2 * (2 * mu**2 + nu**2)
    )


class TestGammaSiso:
    def test_rayleigh_is_exponential(self):
        p = gamma_siso(RicianSpec(0.0, 1.0))
        assert (p.kappa, p.theta) == (1.0, 1.0)

    def test_half_mean_case(self):
        p = gamma_siso(RicianSpec(0.5, 1.0))
        assert p.kappa == pytest.approx(float(Fraction(25, 24)), rel=1e-14)
        assert p.theta == pytest.approx(1.2, rel=1e-14)
        assert p.mean == pytest.approx(1.25, rel=1e-14)

    @settings(deadline=None)
    @given(spec=specs)
    def test_mean_preserved(self, spec):
        mu, nu = spec
        p = gamma_siso(RicianSpec(mu, nu))
        assert p.mean == pytest.approx(mu**2 + nu**2, rel=1e-12)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            gamma_siso(RicianSpec(1.0, 1e-9))


class TestGammaMimo:
    def test_rayleigh_single_stream(self):
        p = gamma_mimo(_geom(16, 8, 1), RicianSpec(0.0, 1.0))
        assert p.kappa == pytest.approx(1.0, rel=1e-14)
        assert p.theta == pytest.approx(1.0, rel=1e-14)

    def test_figure_single_stream_case(self):
        p = gamma_mimo(_geom(16, 8, 1), RicianSpec(0.5, 1.0))
        assert p.kappa == pytest.approx(float(Fraction(3825, 4031)), rel=1e-12)
        assert p.theta == pytest.approx(float(Fraction(4031, 3060)), rel=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(geom=geoms, spec=specs)
    def test_mean_identity(self, geom, spec):
        M, N, K = geom
        mu, nu = spec
        p = gamma_mimo(_geom(M, N, K), RicianSpec(mu, nu))
        assert p.mean == pytest.approx(K * (mu**2 + nu**2), rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        M=st.integers(1, 64), N=st.integers(1, 64), spec=specs
    )
    def test_single_user_reduction(self, M, N, spec):
        mu, nu = spec
        g, s = _geom(M, N, 1), RicianSpec(mu, nu)
        p = gamma_mimo(g, s)
        q = gamma_special(SpecialCase.SINGLE_USER, g, s)
        assert p.kappa == pytest.approx(q.kappa, rel=1e-12)
        assert p.theta == pytest.approx(q.theta, rel=1e-12)

    def test_invalid_geometry(self):
        with pytest.raises(InvalidParameterError):
            gamma_mimo(_geom(2, 2, 3), RicianSpec(0.0, 1.0))


class TestGammaSpecial:
    def test_rayleigh_row(self):
        p = gamma_special(
            SpecialCase.RAYLEIGH_CHANNEL, _geom(16, 8, 1), RicianSpec(0.0, 1.0)
        )
        assert p.kappa == pytest.approx(1.0)
        assert p.theta == pytest.approx(1.0)

    def test_rayleigh_row_uses_max_dimension(self):
        # Table-verbatim: max(N, M), not the M of the mu -> 0 theorem limit
        p = gamma_special(
            SpecialCase.RAYLEIGH_CHANNEL, _geom(4, 8, 2), RicianSpec(0.0, 1.0)
        )
        assert p.kappa == pytest.approx(2 * (8 - 2 + 2) / 9)
        assert p.theta == pytest.approx(9 / 8)
        q = gamma_mimo(_geom(4, 8, 2), RicianSpec(0.0, 1.0))
        assert p.kappa != pytest.approx(q.kappa)  # documented discrepancy

    def test_general_matching_is_exact_for_rayleigh_at_n_above_m(self):
        # at mu = 0 the exact variance K(M + 1)/(M - K + 2) carries M only;
        # the row's max(N, M) = N gives K(N + 1)/(N - K + 2) instead
        geom, spec = _geom(4, 8, 2), RicianSpec(0.0, 1.0)
        cfg = ExperimentConfig(geom=geom, si_spec=spec, trials=200_000, seed=34)
        var, se = _var_and_se(run_si_empirical(cfg).samples)
        assert gamma_mimo(geom, spec).variance == pytest.approx(2.5, rel=1e-12)
        assert abs(var - gamma_mimo(geom, spec).variance) < 5 * se
        row = gamma_special(SpecialCase.RAYLEIGH_CHANNEL, geom, spec)
        assert row.variance == pytest.approx(2.25, rel=1e-12)
        assert abs(var - row.variance) > 5 * se

    def test_massive_mimo_rayleigh(self):
        p = gamma_special(
            SpecialCase.MASSIVE_MIMO, _geom(16, 8, 2), RicianSpec(0.0, 1.0)
        )
        assert p.kappa == pytest.approx(2.0)
        assert p.theta == pytest.approx(1.0)

    @pytest.mark.parametrize("side,rel", [(512, 0.01), (2048, 0.005)])
    def test_massive_mimo_is_large_array_limit(self, side, rel):
        s = RicianSpec(0.5, 1.0)
        p = gamma_mimo(_geom(side, side, 2), s)
        q = gamma_special(SpecialCase.MASSIVE_MIMO, _geom(side, side, 2), s)
        assert p.kappa == pytest.approx(q.kappa, rel=rel)
        assert p.theta == pytest.approx(q.theta, rel=rel)


class TestMoments:
    def test_moment1_examples(self):
        assert moment1(1, RicianSpec(0.0, 1.0)) == 1.0
        assert moment1(3, RicianSpec(0.5, 1.0)) == pytest.approx(3.75)
        assert moment1(1, RicianSpec(0.5, 1.0)) == pytest.approx(1.25)

    def test_moment1_rejects_non_counts(self):
        for K in (True, False, 0, 2.0, np.int64(2)):
            with pytest.raises(InvalidParameterError, match="K must be an integer >= 1"):
                moment1(K, RicianSpec(0.5, 1.0))

    def test_moment2_scalar_rayleigh(self):
        assert moment2(_geom(1, 1, 1), RicianSpec(0.0, 1.0)) == pytest.approx(2.0)

    @settings(deadline=None)
    @given(spec=specs)
    def test_moment2_scalar_reduces_to_entry_moment(self, spec):
        mu, nu = spec
        expected = mu**4 + 4 * mu**2 * nu**2 + 2 * nu**4
        got = moment2(_geom(1, 1, 1), RicianSpec(mu, nu))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_moment2_multi_stream_frozen(self):
        # direct substitution; cross-checked against a 2e6-trial MC run
        got = moment2(_geom(16, 8, 3), RicianSpec(0.5, 1.0))
        assert got == pytest.approx(19.89673202614379, rel=1e-14)

    @settings(deadline=None, max_examples=200)
    @given(geom=geoms, spec=specs)
    def test_moment2_gram_statistic_form(self, geom, spec):
        # ZF has t2 = E tr((V^H V)^2) = K(M+1)/(M-K+2)
        M, N, K = geom
        mu, nu = spec
        gram = _gram_m2(M, N, K, mu, nu, K * (M + 1) / (M - K + 2))
        assert moment2(_geom(M, N, K), RicianSpec(mu, nu)) == pytest.approx(gram, rel=1e-12)

    def test_variance_scalar_rayleigh(self):
        assert si_variance(_geom(1, 1, 1), RicianSpec(0.0, 1.0)) == pytest.approx(1.0)

    def test_variance_from_moments_example(self):
        g, s = _geom(16, 8, 1), RicianSpec(0.5, 1.0)
        assert si_variance(g, s) == pytest.approx(moment2(g, s) - 1.25**2, rel=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(geom=geoms, spec=specs)
    def test_variance_identity(self, geom, spec):
        M, N, K = geom
        mu, nu = spec
        g, s = _geom(M, N, K), RicianSpec(mu, nu)
        expected = moment2(g, s) - moment1(K, s) ** 2
        assert si_variance(g, s) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestMomentMatch:
    def test_unit_case(self):
        p = moment_match(1.0, 1.0)
        assert (p.kappa, p.theta) == (1.0, 1.0)

    def test_definition(self):
        p = moment_match(2.0, 1.0)
        assert (p.kappa, p.theta) == (4.0, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            moment_match(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            moment_match(1.0, -1.0)

    @pytest.mark.parametrize("m1, var, name", [
        (1e300, math.inf, "var"), (math.inf, math.inf, "m1"), (1.0, math.nan, "var"),
    ])
    def test_non_finite_moments_are_rejected_by_name(self, m1, var, name):
        # inf / inf would give a NaN kappa
        with pytest.raises(InvalidParameterError, match=f"^{name} must be > 0 and finite"):
            moment_match(m1, var)

    @pytest.mark.parametrize("spec", [rician_from_factor(1.0, 1e300), RicianSpec(1e150, 1.0),
                                      RicianSpec(0.0, 1e100)])
    def test_overflowed_variance_is_rejected(self, spec):
        g = SystemGeometry(L=1, K=1, M=16, N=8)
        assert si_variance(g, spec) == math.inf
        with pytest.raises(InvalidParameterError, match="^var must be > 0 and finite, got inf"):
            gamma_mimo(g, spec)


@pytest.mark.parametrize("kappa, theta, name", [
    (math.inf, 1.0, "kappa"), (1.0, math.inf, "theta"), (math.nan, 1.0, "kappa"),
    (1.0, math.nan, "theta"), (0.0, 1.0, "kappa"), (1.0, -1.0, "theta"),
])
def test_gamma_params_must_be_positive_and_finite(kappa, theta, name):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be > 0 and finite"):
        GammaParams(kappa, theta)


def test_moment_match_rejects_an_overflowed_shape():
    # finite moments whose shape m1^2/var overflows
    with pytest.raises(InvalidParameterError, match="^kappa must be > 0 and finite, got inf"):
        moment_match(1e160, 1e-160)


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        SystemGeometry(L=0, K=1, M=1, N=1)
    with pytest.raises(InvalidParameterError):
        SystemGeometry(L=1, K=2, M=1, N=4)
    for name in ("L", "K", "M", "N"):
        dims = dict(L=1, K=1, M=16, N=8)
        for bad in (True, np.int64(2), 2.0):
            dims[name] = bad
            with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
                SystemGeometry(**dims)


def _var_and_se(x):
    m = x.mean()
    var = np.mean((x - m) ** 2)
    return var, np.sqrt((np.mean((x - m) ** 4) - var**2) / x.size)


SCOPE_GEOM = (16, 8, 3)  # M, N, K
SCOPE_SPEC = RicianSpec(0.5, 1.0)


@pytest.fixture(scope="module")
def precoder_gains():
    """200k SI gains ||w_1^T H_si V||^2 per precoder, all with a ZF decoder
    row and V from the same Rayleigh H_down: ZF, orthonormal (QR of
    H_down^H, spanning the same space) and MRT (normalised columns of
    H_down^H).  All three have unit-norm columns and unitarily invariant
    laws."""
    M, N, K = SCOPE_GEOM
    gains = {"zf": [], "orth": [], "mrt": []}
    for b in range(10):
        g = RngHandle(30, b).generator()
        n = 20_000
        H_si = generate_batch(n, N, M, SCOPE_SPEC, g)
        H_down = generate_batch(n, K, M, RAYLEIGH, g)
        H_up = generate_batch(n, N, K, RAYLEIGH, g)
        W, _ = zf_decoder_batch(H_up)
        H_down_h = H_down.conj().transpose(0, 2, 1)
        precoders = {
            "zf": zf_precoder_batch(H_down)[0],
            "orth": np.linalg.qr(H_down_h)[0],
            "mrt": H_down_h / np.linalg.norm(H_down_h, axis=1, keepdims=True),
        }
        w1_H = W[:, 0:1, :] @ H_si
        for name, V in precoders.items():
            gains[name].append(np.sum(np.abs(w1_H @ V) ** 2, axis=(1, 2)))
    return {name: np.concatenate(x) for name, x in gains.items()}


def _gram_variance(t2):
    M, N, K = SCOPE_GEOM
    mu, nu = SCOPE_SPEC.mu, SCOPE_SPEC.nu
    return _gram_m2(M, N, K, mu, nu, t2) - moment1(K, SCOPE_SPEC) ** 2


def test_variance_scope_is_zf_not_any_unit_norm_precoder(precoder_gains):
    # si_variance is the variance under ZF beamformers from independent
    # Rayleigh channels; an orthonormal V has t2 = K and a smaller variance
    # (5.1924 against 5.8342 here)
    M, N, K = SCOPE_GEOM
    cf = si_variance(_geom(M, N, K), SCOPE_SPEC)
    var_zf, se_zf = _var_and_se(precoder_gains["zf"])
    var_orth, se_orth = _var_and_se(precoder_gains["orth"])
    assert abs(var_zf - cf) < 5 * se_zf
    assert _gram_variance(K) == pytest.approx(5.1924, abs=1e-4)
    assert abs(var_orth - _gram_variance(K)) < 5 * se_orth
    assert abs(var_orth - cf) > 5 * se_orth


def test_gram_form_variance_of_mrt_precoder(precoder_gains):
    # MRT columns are independent isotropic unit vectors, so
    # t2 = K + K(K - 1) E|<u, v>|^2 = K + K(K - 1)/M
    M, N, K = SCOPE_GEOM
    expected = _gram_variance(K + K * (K - 1) / M)
    assert expected == pytest.approx(5.7941, abs=1e-4)
    var_mrt, se_mrt = _var_and_se(precoder_gains["mrt"])
    assert abs(var_mrt - expected) < 5 * se_mrt


def test_zf_gram_statistic_monte_carlo():
    # the one fact about the ZF precoder that moment2 uses:
    # t2 = E tr((V^H V)^2) = K(M + 1)/(M - K + 2)
    gen = RngHandle(31).generator()
    for K, M, n in [(3, 16, 50_000), (2, 2, 50_000), (8, 64, 20_000)]:
        V, bad = zf_precoder_batch(generate_batch(n, K, M, RAYLEIGH, gen))
        assert not bad.any()
        t2 = np.sum(np.abs(V.conj().transpose(0, 2, 1) @ V) ** 2, axis=(1, 2))
        se = t2.std() / np.sqrt(n)
        assert abs(t2.mean() - K * (M + 1) / (M - K + 2)) < 5 * se, (K, M)
