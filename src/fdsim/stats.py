"""Distribution evaluation, histograms, and goodness of fit.

The SISO residual SI gain |h|^2 with h ~ CN(mu, nu^2) follows a scaled
non-central chi-squared law; its density is evaluated through the
exponentially scaled Bessel function, with its exponent taken without
cancellation, so large Rician factors neither overflow nor lose digits.

Every function here is numpy and ``math`` code only. The Gamma CDF is
the regularised lower incomplete gamma P(a, x), a = kappa, x = x/theta,
and each value depends on its own x alone, so ``ks_distance`` may evaluate
it on any subset of a sample. Below a = 1e3 it is the power series
(Numerical Recipes 6.2)

    P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n)).

Below cut = a + 1 + 3 sqrt(a), every x takes the terms d_n that reach
2^-52 of the sum at x = cut, as d_n (x/cut)^n; from cut to cap = a + 40 +
10 sqrt(a) it takes those at cap; past cap P rounds to 1. A smaller x only
shortens the series' tail, so the terms of the scale suffice. Estrin's
scheme sums them in pairs, pairs of pairs and so on, each level one numpy
call over every point, and Horner's rule the last few rows, so a call
makes O(log terms) numpy calls and O(points * terms) flops. The prefix,
the log-density of Gamma(a+1, 1) that ``gamma_pdf`` reuses, is a log(x) -
x - lgamma(a+1) for a < 30, and above it a (log1p(t) - t) - log(2 pi a)/2
- stirlerr(a), t = x/a - 1, with log1p(t) - t from the atanh series near
t = 0, so that it does not cancel (DiDonato and Morris 1986).
From a = 1e3 on, Temme's uniform expansion to its a^-2 term takes over
(DLMF 8.12), with erf(w) as P(1/2, w^2) from the series. Against
``scipy.special.gammainc`` the absolute error is under 1e-12 for a from
1e-3 to 1e6 (tests/test_stats.py), and 2.1e-14 is the worst seen. P(a, 0)
is 0, P(a, inf) is 1 and NaN gives NaN, with no numpy warning.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .closedform import GammaParams
from .exceptions import InvalidParameterError

__all__ = [
    "si_pdf_siso",
    "gamma_pdf",
    "gamma_cdf",
    "ks_distance",
    "histogram",
]


def si_pdf_siso(x, varpi: float, omega: float):
    """Density of the SISO SI gain in (Rician factor, attenuation) form.

    p(x) = (1+varpi)/omega * exp(-(varpi + (1+varpi) x / omega))
           * I0(2 sqrt(varpi (1+varpi) x / omega))

    With a = sqrt(varpi), b = sqrt((1+varpi) x/omega) and z = 2ab, p is
    exp(log1p(varpi) - log(omega) - (a - b)^2) e^-z I0(z), and a - b is
    (varpi (1 - x/omega) - x/omega)/(a + b), which does not cancel. e^-z
    I0(z) is ``np.i0(z) * exp(-z)`` below z = 700, where ``np.i0`` does not
    overflow, and the asymptotic series of DLMF 10.40.1 to z^-6 from there
    on. The relative error against mpmath is under 2e-14 for varpi <= 100,
    and up to varpi = 1e200 under 1e-13 plus |a - b| sqrt(varpi) 2^-53, the
    rounding of x/omega (tests/test_stats.py). p is 0 at x = inf and NaN at
    NaN, with no numpy warning.
    """
    if not (varpi >= 0 and math.isfinite(varpi)):
        raise InvalidParameterError(f"varpi must be >= 0, got {varpi}")
    if not (omega > 0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be > 0, got {omega}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    a = math.sqrt(varpi)
    # x/omega overflows to inf, and then gives 0 inf or inf/inf, where the
    # density is 0; a + b = 0 only at varpi = x = 0, where a - b is 0
    with np.errstate(invalid="ignore", over="ignore"):
        u = x / omega
        b = np.sqrt(u) * math.sqrt(1.0 + varpi)
        d = np.where(a + b > 0, (varpi * (1.0 - u) - u) / (a + b), 0.0)  # a - b
        out = np.exp(math.log1p(varpi) - math.log(omega) - d * d) * _i0e(2.0 * a * b)
    out = np.where(b == np.inf, 0.0, out)
    return out if out.ndim else float(out)


# e^-z I0(z) ~ (2 pi z)^-1/2 sum_k ((2k-1)!!)^2 / (k! 8^k z^k), k = 0..6,
# highest first: from z = 700 on the next term is under 1e-19 (DLMF 10.40.1).
_I0E_ASYMPTOTIC = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8 * k) for k in range(1, 7)])[::-1]


def _i0e(z: np.ndarray) -> np.ndarray:
    """e^-z I0(z) over z >= 0, inf or NaN."""
    small = z < 700.0  # np.i0 overflows near 713
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 700.0, z)
    asymptotic = np.polyval(_I0E_ASYMPTOTIC, 1.0 / zl) / np.sqrt(2.0 * math.pi * zl)
    return np.where(small, np.i0(zs) * np.exp(-zs), asymptotic)


def gamma_pdf(x, p: GammaParams):
    """Gamma density with shape p.kappa and scale p.theta, from the CDF's prefix."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("x must be >= 0")
    u = x / p.theta
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, 0 log 0, inf - inf
        out = np.exp(_log_prefix(p.kappa - 1.0, u)) / p.theta
    # the limits the prefix misses: 1/theta at u = 0 if kappa = 1, and 0 at u = inf
    out = np.where(u == np.inf, 0.0, np.where((u == 0) & (p.kappa == 1.0), 1 / p.theta, out))
    return out if out.ndim else float(out)


def gamma_cdf(x, p: GammaParams):
    """Gamma CDF, the regularised lower incomplete gamma P(kappa, x/theta).

    Evaluated as the module docstring says; its absolute error is under
    1e-12 for kappa from 1e-3 to 1e6, where tests/test_stats.py checks it.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise InvalidParameterError("x must be >= 0")
    out = _gammainc(p.kappa, x.ravel() / p.theta).reshape(x.shape)
    return out if out.ndim else float(out)


# A series term below this fraction of the sum ends the series.
_EPS = 2.0**-52
# Padded series terms times points in one chunk, so that a call's Estrin
# arrays stay near 100 kB however many points it takes.
_CHUNK = 1 << 14
# (atanh(u)/u - 1)/u^2 = 1/3 + u^2/5 + ... to its u^12 term, highest first.
_ATANH = [1 / k for k in range(15, 2, -2)]
# From this shape on, Temme's expansion takes over from the series.
_TEMME = 1e3
# Temme's c_0(eta), c_1(eta) and c_2(eta) to eta^11, lowest first: DLMF 8.12.11's
# series, carried on by the recurrence 8.12.12.
_TEMME_C = np.array([
    [
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
    ],
    [
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
    ],
    [
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
    ],
])


def _gammainc(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) over a 1-d x of values >= 0 or NaN; each value depends on its x alone."""
    if a >= _TEMME:
        return _temme(a, x)
    cut = a + 1.0 + 3.0 * math.sqrt(a)
    if x.min(initial=np.inf) > 0 and x.max(initial=0.0) < cut:
        return _series(a, x, cut)
    cap = a + 40.0 + 10.0 * math.sqrt(a)  # P(a, x) rounds to 1 from here on
    out = np.where(np.isnan(x), np.nan, np.where(x < cap, 0.0, 1.0))
    for at, s in (((0 < x) & (x < cut), cut), ((cut <= x) & (x < cap), cap)):
        out[at] = _series(a, x[at], s)
    return out


def _series(a: float, x: np.ndarray, s: float) -> np.ndarray:
    """P(a, x) over a 1-d 0 < x < s, by the power series taken as far as s needs."""
    c, levels = _terms(a, s)
    with np.errstate(divide="ignore"):  # x/s or x/a underflows to 0 only where its terms are 0
        lu = np.log(x / s)
        out = np.exp(_log_prefix(a, x))
    step = max(1, _CHUNK // c.size)
    for i in range(0, x.size, step):
        # sum_n c_n u^n, u = x/s: Estrin's scheme pairs the terms, then the
        # pairs, `levels` times, and Horner's rule sums the rows left
        powers = np.exp(np.multiply.outer(2.0 ** np.arange(levels + 1), lu[i : i + step]))
        p = c[:, None]
        for power in powers[:-1]:
            p = p[0::2] + p[1::2] * power
        acc = p[-1]
        for row in p[-2::-1]:
            acc = acc * powers[-1] + row
        out[i : i + step] *= acc
    return out


@functools.lru_cache(maxsize=16)
def _terms(a: float, s: float) -> tuple[np.ndarray, int]:
    """The series' terms at x = s, zero-padded to at most 7 rows of 2^levels, and levels."""
    t = total = 1.0
    k = a
    c = [1.0]
    while t > total * _EPS:
        k += 1.0
        t *= s / k
        total += t
        c.append(t)
    levels = max(0, len(c).bit_length() - 3)
    rows = -(-len(c) >> levels)
    c = np.array(c + [0.0] * ((rows << levels) - len(c)))
    c.flags.writeable = False  # shared by every call through the cache
    return c, levels


def _temme(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) for a >= _TEMME by Temme's uniform expansion to its a^-2 term.

    P = erfc(-eta sqrt(a/2))/2 - e^(-a eta^2/2) / sqrt(2 pi a) (c_0 + c_1/a
    + c_2/a^2), with a eta^2/2 = x - a - a log(x/a) and eta's sign that of
    x - a (DLMF 8.12). The next term is under 1e-14 here. Beyond a -+ reach
    P is 0 or 1 to 1e-22, so x is clipped to that band, where the c_k's
    series, cut at eta^11, are off by under 1e-20 once the factor in front
    of them weighs them.
    """
    reach = 40.0 + 10.0 * math.sqrt(a)
    t = (np.clip(x, a - reach, a + reach) - a) / a
    half_eta2 = -a * _log1pmx(t)
    eta = np.copysign(np.sqrt(half_eta2 * (2.0 / a)), t)
    # erf(w) = P(1/2, w^2)
    erfc_half = 0.5 + np.copysign(0.5 * _gammainc(0.5, half_eta2), t)
    c = np.polyval((_TEMME_C[0] + (_TEMME_C[1] + _TEMME_C[2] / a) / a)[::-1], eta)
    out = erfc_half - np.exp(-half_eta2) * c / math.sqrt(2.0 * math.pi * a)
    out[x <= a - reach] = 0.0
    return out


def _log_prefix(a: float, x: np.ndarray) -> np.ndarray:
    """log(x^a e^-x / Gamma(a+1)), the Gamma(a+1, 1) log-density at x, for a > -1.

    x = 0 gives the density's limit, -inf or +inf, with a numpy warning; at a = 0, NaN.
    """
    if a < 30.0:
        return a * np.log(x) - x - math.lgamma(a + 1.0)
    # Stirling: lgamma(a+1) = (a + 1/2) log(a) - a + log(2 pi)/2 + stirlerr(a)
    a2 = a * a
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * a2)) / a2) / a2) / a
    return a * _log1pmx((x - a) / a) - (0.5 * math.log(2 * math.pi * a) + stirlerr)


def _log1pmx(t: np.ndarray) -> np.ndarray:
    """log1p(t) - t over t >= -1, without the cancellation near t = 0."""
    u = t / (2.0 + t)
    u2 = u * u
    # log1p(t) = 2 atanh(u) = 2 u (1 + u^2/3 + u^4/5 + ...) and 2 u - t = -u t
    near = u * (2.0 * u2 * np.polyval(_ATANH, u2) - t)
    return np.where(np.abs(t) < 0.1, near, np.log1p(t) - t)


# Rank strides of the KS walk, coarsest first; the last must be 1.
_KS_STRIDES = (4096, 512, 64, 8, 1)
# Added to every gap bound: far above gamma_cdf's rounding, so a cdf that is
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


def histogram(samples, bin_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(bin_edges, counts)`` of an equal-width histogram over [0, max(samples)]."""
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
    return edges, counts
