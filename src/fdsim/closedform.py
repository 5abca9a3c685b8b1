"""Closed-form residual SI statistics: Gamma moment matching and moments.

Covers the exact first/second moments and variance of ||w^T H V||^2,
the SISO and general MIMO moment-matched Gammas, and the special-case
table (single-user, Rayleigh, massive MIMO).  Every matched Gamma except
the special-case table, which is kept verbatim, is ``moment_match`` of the
exact mean and variance.

The moments are derived for, and tested against, ZF beamformers built
from Rayleigh uplink/downlink channels independent of the SI channel H.
They do not hold for every unit-norm linear beamformer: an orthonormal
precoder spanning the same space as the ZF one has a smaller variance.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .channel import RicianSpec
from .exceptions import InvalidParameterError

__all__ = [
    "GammaParams",
    "SystemGeometry",
    "SpecialCase",
    "gamma_siso",
    "gamma_mimo",
    "gamma_special",
    "moment1",
    "moment2",
    "si_variance",
    "moment_match",
]

# Below this nu (with mu > 0) the SI channel is effectively deterministic and
# the Gamma shape parameter diverges; reject instead of returning garbage.
_NU_MIN = 1e-6


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution parameters: shape ``kappa``, scale ``theta``."""

    kappa: float
    theta: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise InvalidParameterError(f"kappa must be > 0, got {self.kappa}")
        if not self.theta > 0:
            raise InvalidParameterError(f"theta must be > 0, got {self.theta}")

    @property
    def mean(self) -> float:
        return self.kappa * self.theta

    @property
    def variance(self) -> float:
        return self.kappa * self.theta**2


@dataclass(frozen=True)
class SystemGeometry:
    """Cell count L, stream count K, transmit antennas M, receive antennas N."""

    L: int
    K: int
    M: int
    N: int

    def __post_init__(self):
        for name in ("L", "K", "M", "N"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise InvalidParameterError(f"{name} must be an integer >= 1, got {v!r}")
        if self.K > min(self.N, self.M):
            raise InvalidParameterError(
                f"need K <= min(N, M), got K={self.K}, N={self.N}, M={self.M}"
            )


class SpecialCase(enum.Enum):
    SINGLE_USER = "single-user"
    RAYLEIGH_CHANNEL = "rayleigh-channel"
    MASSIVE_MIMO = "massive-mimo"


def _check_spec(spec: RicianSpec) -> None:
    if spec.mu > 0 and spec.nu < _NU_MIN:
        raise InvalidParameterError(
            f"nu={spec.nu} below {_NU_MIN} with mu>0: Gamma matching degenerates"
        )


def gamma_siso(spec: RicianSpec) -> GammaParams:
    """Moment-matched Gamma for the SISO SI gain |h|^2, h ~ CN(mu, nu^2).

    Matches the mean mu^2+nu^2 and the variance nu^2 (2 mu^2+nu^2):
    kappa = (mu^2+nu^2)^2 / ((2 mu^2+nu^2) nu^2),
    theta = (2 mu^2+nu^2) nu^2 / (mu^2+nu^2).
    """
    _check_spec(spec)
    nu2 = spec.nu**2
    return moment_match(spec.omega, nu2 * (2.0 * spec.mu**2 + nu2))


def gamma_mimo(geom: SystemGeometry, spec: RicianSpec) -> GammaParams:
    """Moment-matched Gamma for the MIMO SI gain ||w^T H V||^2.

    Matches the exact first moment K(mu^2+nu^2) and the exact variance of
    the residual SI under ZF beamforming over independent Rayleigh
    channels (see the module docstring for the scope).
    """
    _check_spec(spec)
    return moment_match(moment1(geom.K, spec), si_variance(geom, spec))


def gamma_special(
    case: SpecialCase, geom: SystemGeometry, spec: RicianSpec
) -> GammaParams:
    """Special-case Gamma parameters (single-user / Rayleigh / massive MIMO).

    The Rayleigh row uses max(N, M) verbatim and ignores the Rician spec;
    the massive-MIMO row ignores M and N.  Note the Rayleigh row differs
    from the mu -> 0 limit of the general matching, which carries M (not
    max(N, M)); both behaviours are exposed deliberately.
    """
    _check_spec(spec)
    K, M, N = geom.K, geom.M, geom.N
    mu2 = spec.mu**2
    nu2 = spec.nu**2
    omega = mu2 + nu2
    if case is SpecialCase.SINGLE_USER:
        nm1 = (N + 1) * (M + 1)
        d = (3 * N * M - N - M - 1) * mu2 * mu2 + 2 * nm1 * mu2 * nu2 + nm1 * nu2 * nu2
        kappa = nm1 * omega * omega / d
        theta = omega + 2.0 * (M * N - N - M - 1) * mu2 * mu2 / (nm1 * omega)
        return GammaParams(kappa=kappa, theta=theta)
    if case is SpecialCase.RAYLEIGH_CHANNEL:
        p = max(N, M)
        return GammaParams(
            kappa=K * (p - K + 2) / (p + 1), theta=(p + 1) / (p - K + 2)
        )
    if case is SpecialCase.MASSIVE_MIMO:
        d = (K + 2) * mu2 * mu2 + 2.0 * mu2 * nu2 + nu2 * nu2
        return GammaParams(kappa=K * omega * omega / d, theta=d / omega)
    raise InvalidParameterError(f"unknown special case {case!r}")


def moment1(K: int, spec: RicianSpec) -> float:
    """Exact first moment of ||w^T H V||^2: K (mu^2 + nu^2)."""
    if not (isinstance(K, int) and K >= 1):
        raise InvalidParameterError(f"K must be an integer >= 1, got {K!r}")
    return K * (spec.mu**2 + spec.nu**2)


def moment2(geom: SystemGeometry, spec: RicianSpec) -> float:
    """Exact second moment of ||w^T H V||^2."""
    K, M, N = geom.K, geom.M, geom.N
    mu2 = spec.mu**2
    nu2 = spec.nu**2
    t = nu2 * (2.0 * mu2 + nu2)
    return (
        K
        * ((M + 1) / (M - K + 2) + K)
        * (2.0 * N * M / (N * M + N + M + 1) * mu2 * mu2 + t)
    )


def si_variance(geom: SystemGeometry, spec: RicianSpec) -> float:
    """Exact variance of ||w^T H V||^2; equals moment2 - moment1**2."""
    K, M, N = geom.K, geom.M, geom.N
    mu2 = spec.mu**2
    nu2 = spec.nu**2
    t = nu2 * (2.0 * mu2 + nu2)
    c = (K * (M - K + 2) * (N * M - N - M - 1) + 2.0 * N * M * (M + 1)) / (
        (N + 1) * (M + 1)
    )
    return K / (M - K + 2) * (c * mu2 * mu2 + (M + 1) * t)


def moment_match(m1: float, var: float) -> GammaParams:
    """Method of moments: Gamma with mean ``m1`` and variance ``var``."""
    if not m1 > 0:
        raise InvalidParameterError(f"m1 must be > 0, got {m1}")
    if not var > 0:
        raise InvalidParameterError(f"var must be > 0, got {var}")
    return GammaParams(kappa=m1 * m1 / var, theta=var / m1)
