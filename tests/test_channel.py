import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim import InvalidParameterError, RicianSpec, RngHandle, rician_from_factor
from fdsim.channel import RAYLEIGH, generate_batch


def test_second_moment_rayleigh():
    g = RngHandle(1, 0).generator()
    z = generate_batch(1, 1, 1_000_000, RAYLEIGH, g)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)


def test_second_moment_rician():
    g = RngHandle(2, 0).generator()
    z = generate_batch(1, 1, 1_000_000, RicianSpec(0.5, 1.0), g)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.25, rel=0.01)


def test_fourth_moment_rician():
    # E{|z|^4} = mu^2 (mu^2 + 4 nu^2) + 2 nu^4 = 0.25 * 4.25 + 2
    g = RngHandle(3, 0).generator()
    z = generate_batch(1, 1, 1_000_000, RicianSpec(0.5, 1.0), g)
    assert np.mean(np.abs(z) ** 4) == pytest.approx(3.0625, rel=0.02)


def test_power_variance_within_three_standard_errors():
    mu, nu = 0.7, 1.1
    n = 1_000_000
    g = RngHandle(4, 0).generator()
    p = np.abs(generate_batch(1, 1, n, RicianSpec(mu, nu), g)) ** 2
    var_expected = nu**2 * (2 * mu**2 + nu**2)
    # SE of the sample variance from the 4th central moment estimate
    se = np.sqrt((np.mean((p - p.mean()) ** 4) - var_expected**2) / n)
    assert abs(np.var(p) - var_expected) < 3 * se


def test_generate_matrix_deterministic():
    # (seed, stream_id) alone fixes the draw
    spec = RicianSpec(0.5, 2.0)
    a = generate_batch(3, 4, 6, spec, RngHandle(77, 5).generator())
    b = generate_batch(3, 4, 6, spec, RngHandle(77, 5).generator())
    c = generate_batch(3, 4, 6, spec, RngHandle(77, 6).generator())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [0, 2**64 - 1])
def test_rng_handle_edge_values(seed, stream_id):
    # both ends of the 64-bit range are accepted; the pair alone fixes the
    # stream, and the neighbouring stream id starts elsewhere
    first = RngHandle(seed, stream_id).generator().standard_normal(8)
    assert np.array_equal(RngHandle(seed, stream_id).generator().standard_normal(8), first)
    other = stream_id ^ 1
    assert RngHandle(seed, other).generator().standard_normal() != first[0]


def test_generate_matrix_entry_power():
    g = RngHandle(5, 0).generator()
    mats = generate_batch(100_000, 8, 16, RicianSpec(0.5, 1.0), g)
    assert np.mean(np.abs(mats) ** 2) == pytest.approx(1.25, rel=0.01)


def test_entries_uncorrelated():
    g = RngHandle(6, 0).generator()
    mats = generate_batch(100_000, 2, 3, RAYLEIGH, g).reshape(100_000, 6)
    p = np.abs(mats) ** 2
    c = np.corrcoef(p, rowvar=False)
    off = c[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) < 0.01


def test_rician_from_factor_examples():
    s = rician_from_factor(0.0, 1.0)
    assert (s.mu, s.nu) == (0.0, 1.0)
    s = rician_from_factor(1.0, 2.0)
    assert s.mu == pytest.approx(1.0, rel=1e-12)
    assert s.nu == pytest.approx(1.0, rel=1e-12)
    s = rician_from_factor(0.25, 1.25)
    assert s.mu == pytest.approx(0.5, rel=1e-12)
    assert s.nu == pytest.approx(1.0, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    varpi=st.floats(0.0, 100.0, allow_nan=False),
    omega=st.floats(1e-3, 100.0, allow_nan=False),
)
def test_factor_roundtrip_identity(varpi, omega):
    s = rician_from_factor(varpi, omega)
    assert s.varpi == pytest.approx(varpi, rel=1e-12, abs=1e-12)
    assert s.omega == pytest.approx(omega, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: RicianSpec(-0.1, 1.0),
        lambda: RicianSpec(0.0, 0.0),
        lambda: RicianSpec(0.0, -1.0),
        lambda: rician_from_factor(-1.0, 1.0),
        lambda: rician_from_factor(1.0, 0.0),
        lambda: RngHandle(-1),
        lambda: RngHandle(2**64),
        lambda: RngHandle(0, 2**64),
        lambda: RicianSpec(1e160, 1.0),
        lambda: RicianSpec(0.0, 1e160),
    ],
)
def test_invalid_parameters_rejected(call):
    with pytest.raises(InvalidParameterError):
        call()
