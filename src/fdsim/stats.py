"""Distribution evaluation, histograms, and goodness of fit.

The SISO residual SI gain |h|^2 with h ~ CN(mu, nu^2) follows a scaled
non-central chi-squared law; its density is evaluated in the log domain
through the exponentially scaled Bessel function so large Rician factors
do not overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .closedform import GammaParams
from .exceptions import InvalidParameterError

__all__ = [
    "Histogram",
    "GofReport",
    "si_pdf_siso",
    "gamma_pdf",
    "gamma_cdf",
    "ks_distance",
    "histogram",
]


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram over [0, max(samples)]."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int


@dataclass(frozen=True)
class GofReport:
    """Goodness-of-fit summary of empirical samples against a reference Gamma."""

    ks_statistic: float
    mean_rel_err: float
    var_rel_err: float
    sample_count: int


def si_pdf_siso(x, varpi: float, omega: float):
    """Density of the SISO SI gain in (Rician factor, attenuation) form.

    p(x) = (1+varpi)/omega * exp(-(varpi + (1+varpi) x / omega))
           * I0(2 sqrt(varpi (1+varpi) x / omega))

    Evaluated as exp(log ...) * i0e(...) for numerical stability.
    """
    if not (varpi >= 0 and math.isfinite(varpi)):
        raise InvalidParameterError(f"varpi must be >= 0, got {varpi}")
    if not (omega > 0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be > 0, got {omega}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    arg = 2.0 * np.sqrt(varpi * (1.0 + varpi) * x / omega)
    log_pref = (
        math.log1p(varpi) - math.log(omega) - varpi - (1.0 + varpi) * x / omega + arg
    )
    out = np.exp(log_pref) * special.i0e(arg)
    return out if out.ndim else float(out)


def gamma_pdf(x, p: GammaParams):
    """Gamma density with shape p.kappa and scale p.theta."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (
            (p.kappa - 1.0) * np.log(x)
            - x / p.theta
            - special.gammaln(p.kappa)
            - p.kappa * math.log(p.theta)
        )
    out = np.exp(log_pdf)
    # x = 0 with kappa = 1 hits 0 * -inf above; the limit is 1/theta.
    if p.kappa == 1.0:
        out = np.where(x == 0.0, 1.0 / p.theta, out)
    return out if out.ndim else float(out)


def gamma_cdf(x, p: GammaParams):
    """Gamma CDF via the regularised lower incomplete gamma function."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    out = special.gammainc(p.kappa, x / p.theta)
    return out if out.ndim else float(out)


def ks_distance(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov sup distance to a reference CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 1:
        raise InvalidParameterError("need at least one sample")
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def histogram(samples, bin_count: int) -> Histogram:
    """Equal-width histogram over [0, max(samples)]."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise InvalidParameterError("need at least one sample")
    if not (isinstance(bin_count, (int, np.integer)) and bin_count >= 1):
        raise InvalidParameterError(f"bin_count must be >= 1, got {bin_count!r}")
    hi = float(s.max())
    if hi <= 0:
        hi = 1.0  # all-zero samples: still produce a valid, if degenerate, grid
    counts, edges = np.histogram(s, bins=bin_count, range=(0.0, hi))
    return Histogram(bin_edges=edges, counts=counts, total=int(s.size))
