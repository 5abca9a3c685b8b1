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
    # xlogy(0, 0) = 0 gives the kappa = 1 limit 1/theta at x = 0
    log_pdf = (
        special.xlogy(p.kappa - 1.0, x)
        - x / p.theta
        - special.gammaln(p.kappa)
        - p.kappa * math.log(p.theta)
    )
    out = np.exp(log_pdf)
    return out if out.ndim else float(out)


def gamma_cdf(x, p: GammaParams):
    """Gamma CDF via the regularised lower incomplete gamma function."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    out = special.gammainc(p.kappa, x / p.theta)
    return out if out.ndim else float(out)


# Rank strides of the KS walk, coarsest first; the last must be 1.
_KS_STRIDES = (4096, 512, 64, 8, 1)
# Added to every gap bound: far above gammainc's rounding, so a cdf that is
# nondecreasing only up to its rounding is still pruned exactly.
_KS_SLACK = 1e-9


def ks_distance(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov sup distance to a reference CDF.

    ``samples`` of any shape are flattened and sorted, s_1 <= ... <= s_n.
    The result is max over i of ``i/n - F_i`` and ``F_i - (i-1)/n``, with
    F_i = cdf(s_i), and it is the same float as evaluating ``cdf`` at every
    s_i, for any ``cdf`` that is elementwise and nondecreasing up to an
    absolute 1e-9. ``cdf`` is called on subsets of the sorted sample only.
    It is first evaluated on a coarse grid of ranks, the first and last
    included. Between two evaluated ranks a < b such a ``cdf`` bounds every
    term by ``max(b/n - F_a, F_b - a/n)``, so a gap is refined, in rounds
    of finer strides down to single ranks, only while that bound plus 1e-9
    reaches the largest term found so far. A NaN sample gives NaN whenever
    cdf(NaN) is NaN.
    """
    s = np.sort(np.asarray(samples, dtype=float), axis=None)
    n = s.size
    if n < 1:
        raise InvalidParameterError("need at least one sample")
    j = np.append(np.arange(0, n - 1, _KS_STRIDES[0]), n - 1)  # evaluated ranks, 0-based
    f = np.asarray(cdf(s[j]), dtype=float)
    for coarse, fine in zip(_KS_STRIDES, _KS_STRIDES[1:]):
        lo, hi = j[:-1], j[1:]
        bound = np.maximum((hi + 1) / n - f[:-1], f[1:] - (lo + 1) / n)
        refine = bound + _KS_SLACK >= _ks_sup(j, f, n)
        # every refined gap is at most `coarse` ranks wide
        new = lo[refine, None] + np.arange(fine, coarse, fine)
        new = new[new < hi[refine, None]]
        if new.size:
            at = np.searchsorted(j, new)
            j = np.insert(j, at, new)
            f = np.insert(f, at, np.asarray(cdf(s[new]), dtype=float))
    return _ks_sup(j, f, n)


def _ks_sup(j: np.ndarray, f: np.ndarray, n: int) -> float:
    """The largest KS term at the 0-based ranks j, whose cdf values are f."""
    i = j + 1
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def histogram(samples, bin_count: int) -> Histogram:
    """Equal-width histogram over [0, max(samples)]."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise InvalidParameterError("need at least one sample")
    is_count = isinstance(bin_count, (int, np.integer)) and not isinstance(bin_count, bool)
    if not (is_count and bin_count >= 1):
        raise InvalidParameterError(f"bin_count must be an integer >= 1, got {bin_count!r}")
    hi = float(s.max())
    if hi <= 0:
        hi = 1.0  # all-zero samples: still produce a valid, if degenerate, grid
    counts, edges = np.histogram(s, bins=bin_count, range=(0.0, hi))
    return Histogram(bin_edges=edges, counts=counts, total=int(s.size))
