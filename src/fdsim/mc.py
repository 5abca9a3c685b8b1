"""Monte Carlo engine: residual SI experiments and SINR term sampling.

Stream layout 11, stated in full; CHANGES.md records the earlier layouts.

Blocks.  A run allocates its result arrays, then cuts its trials into
blocks of ``BLOCK_SIZE = 4096``: block b holds trials ``[b * BLOCK_SIZE,
(b + 1) * BLOCK_SIZE)``, the last block the remainder, and the worker that
runs it writes its results there.  ``BLOCK_SIZE`` sizes the substreams
and this hand-off only.  The workers are the calling thread and
``min(threads, blocks, usable CPUs) - 1`` helper threads, so ``threads=1``
starts none; each takes the next block in index order.  After a failure or
an interrupt no worker takes another block, and the caller re-raises the
first once every helper has ended.  Block b draws all of its randomness
from the SFC64 substream ``SeedSequence(seed, spawn_key=(b,))``, each item
below for all of its trials at once, so results are bitwise reproducible
whatever the number of workers.  Every normal comes from ``generate_batch``
(one ``standard_normal`` in C order, each entry's real part, then its
imaginary part), and every draw holds the trial index on its last axis.
No run draws a channel matrix or runs a ZF kernel, and nothing is redrawn.
Before its first block a run allocates, then frees, one untouched array of
a block's whole draw, every complex normal it draws (``_try_draw``; the
counts per trial below, halved): a geometry too large to draw fails at
once, and on glibc the free raises the mmap and trim thresholds above a
block's heap use, so a worker's heap keeps its pages from block to block.

ZF factors (``_zf_draw``, ``_zf_solve``).  A Rayleigh K x M link factors
as ``T Q`` (the complex Bartlett decomposition; Goodman 1963; Edelman
1989): T is lower triangular with ``T_ii^2 ~ Gamma(M - i + 1)`` and
``CN(0, 1)`` entries below the diagonal, and Q (orthonormal rows) is Haar
distributed and independent of T.  The link has full rank and
``T_ii > 0`` almost surely, so its ZF precoder ``V = Q^H R`` with
``R = T^-1 D`` and ``D = diag(1 / ||T^-1 e_k||)`` exists, with no draw
conditioned away, and ``T Q V = D``.  ``_zf_draw`` draws T's K(K - 1)/2
below-diagonal entries column by column (one ``generate_batch``), then the
diagonal's Gamma(M), ..., Gamma(M - K + 1).  ``_zf_solve`` overwrites a
stack of 1 x K rows ``x[K, ..., n]`` with ``x X``, ``X = T^-1``, and
returns ``||X e_k||^2 = 1 / D_k^2``, so ``(x R)_k = (x X)_k / ||X e_k||``.
It forward-substitutes X one column at a time (no matrix product or LAPACK
call, T never formed): ``X[k, k] = 1 / T_kk`` and, for l > k, ``X[l, k] =
-(sum over k <= m < l of T[l, m] X[m, k]) / T_ll``; column k's write ``(x
X)_k = sum over l >= k of x_l X[l, k]`` reads only ``x[k:]``, so x may be a
strided view, overwritten row by row.  Besides x the walk holds the
column's K - k vectors of trials and two scratch vectors, one for a term
``T[l, m] X[m, k]`` (or, in halves, ``|X[l, k]|^2``) and one for a term
``x_l X[l, k]``: every step writes into an array the walk owns, with no
per-term temporaries.  Every sum runs in increasing index from its first
term; each trial's arithmetic is its own.

Unit vectors (``_q``, trials last).  ``_q(K, M)`` is sqrt(M) times the
first K entries of a uniform unit vector of C^M, ``sqrt(M) g /
sqrt(||g||^2 + s)``, with ``g ~ CN(0, I_K)`` (one ``generate_batch``) and
then ``s ~ Gamma(M - K)`` (0 at M = K).  Q is Haar, so ``q = Q 1`` of a
K x M link is ``_q(K, M)``; a ZF decoder row w_1 of a Rayleigh N x K H_up
is uniform on the unit sphere of C^N, so ``w_1^T 1`` is ``_q(1, N)``,
phase included.  Both are circular, so their conjugates stand in for them.

SI links (``_si_link``).  Each SI term sees ``H_si = mu 1 1^T + nu Z``
between a receive-side factor with orthonormal rows and a transmit-side
one with orthonormal columns, both independent of Z; their products with
1 are q_rx and q_tx, and Z between them is again ``CN(0, 1)`` entrywise.
So the term's link is ``mu q_rx q_tx^T + nu Z``: ``_si_link(q_rx, q_tx)``
draws Z (one ``generate_batch``, spread nu), then adds the mean.

- ``si`` (``run_si_empirical``): ``||w_1^T H_si V||^2`` under ZF
  beamformers from Rayleigh H_down (K x M) and H_up (N x K) is
  ``||x R||^2``, x the 1 x K link of q_rx = ``w_1^T 1`` and q_tx = q; a
  block draws ``_zf_draw`` of H_down (K, M), q, ``w_1^T 1``, then Z, each
  for the whole block, then walks x once;
- uplink: ``W H_si V_own`` is ``R'^T X R_own``, X the K x K link of q', q;
- downlink: each radio's own SI is a 1 x 1 link of ones, no beamformer.

SINR (``run_sinr``).  Every beamformer comes from the Bartlett factors of
the Rayleigh channel it is computed from: a cell's downlink ``T Q`` gives
``V = Q^H R``; the uplink H_up (N x K) is drawn through its transpose
``H_up^T = T' Q'``, whose ZF decoder is ``W = R'^T Q'^*``.  So ``useful``
is exactly D^2 (downlink) or D'^2 (uplink) and ``mui`` is 0.  Every other
link is independent of the beamformers around it, and Q^H, Q'^* are Haar
and independent of the triangular factors, so a Rayleigh H seen as ``H
V_j``, ``W H`` or ``W H V_j`` is ``Z R_j``, ``R'^T Z`` or ``R'^T Z R_j``,
Z of ``CN(0, 1)`` entries, and the noise ``W eta`` is ``sqrt(noise_power)
R'^T z``.  Each link is drawn as its transpose Z^T, the stack of Z's rows:
they go through T_j; then, as ``R'^T Y = (Y^T R')^T``, the rows of Y^T,
``y.swapaxes(0, 1)``, go through T'.  Each block draws, in this order:

- downlink: ``_zf_draw`` of T_own; per other cell, ``_zf_draw`` of T_j
  then Z^T[K x K]; the cross-mode scalars Z^T[(LK - 1) x K]; the SI link
  ``_si_link(1, 1_K)`` (1 x K); the noise z^T[1 x K];
- uplink: ``_zf_draw`` of T' (K, N) and q'; ``_zf_draw`` of T_own and q;
  the SI link ``_si_link(q, q')``; Z^T[K(L - 1) x K] of W H_x; per other
  cell, ``_zf_draw`` of T_j then Z^T[K x K]; the noise z^T[1 x K].  Both
  draw the noise at unit power, also at ``noise_power`` 0, and scale it.

Counts per trial (real normals; each ``CN`` entry is two).  ``si``:
K(K - 1) + 4K + 2 normals, K + 2 Gamma variates, one walk of one row;
``run_si_theoretical``: one Gamma(kappa, theta) variate and no normal.
Downlink: L K(K - 1) + 2K^2 (L - 1) + 2K (LK - 1) + 4K normals, L K Gamma
variates, L walks.  Uplink: (L + 1) K(K - 1) + 6K + 2K^2 (2L - 1) normals
(42 at L = K = 2), (L + 1) K + 2 Gamma variates, 2L + 2 walks (L + 2 of
T').  None depends on M or N.  The tests keep the full chain, ZF kernels
included, as the reference.
"""
from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .channel import RAYLEIGH, RicianSpec, RngHandle, generate_batch
from .closedform import GammaParams, SystemGeometry, gamma_mimo
from .exceptions import InvalidParameterError
from .stats import gamma_cdf, ks_distance

__all__ = [
    "Direction",
    "ExperimentConfig",
    "McReport",
    "run_si_empirical",
    "run_si_theoretical",
    "run_sinr",
]

BLOCK_SIZE = 1 << 12


class Direction(enum.Enum):
    DOWNLINK = "downlink"
    UPLINK = "uplink"


@dataclass(frozen=True)
class ExperimentConfig:
    geom: SystemGeometry
    si_spec: RicianSpec
    trials: int
    seed: int
    noise_power: float = 1.0
    direction: Direction = Direction.DOWNLINK

    def __post_init__(self):
        if not (type(self.trials) is int and self.trials >= 1):  # a bool is no count
            raise InvalidParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise InvalidParameterError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (self.noise_power >= 0 and math.isfinite(self.noise_power)):
            raise InvalidParameterError(
                f"noise_power must be >= 0 and finite, got {self.noise_power}")
        object.__setattr__(self, "noise_power", self.noise_power + 0.0)  # -0.0 -> 0.0


@dataclass(frozen=True)
class McReport:
    samples: np.ndarray
    emp_m1: float
    emp_m2: float
    emp_var: float
    ks: float


def _blocks(trials: int):
    """(block_index, block_size) partition; fixed regardless of worker count."""
    full, rem = divmod(trials, BLOCK_SIZE)
    out = [(b, BLOCK_SIZE) for b in range(full)]
    if rem:
        out.append((full, rem))
    return out


def _map_blocks(cfg: ExperimentConfig, block_fn, threads: int, out) -> None:
    """``block_fn(cfg, n, gen)`` per block, from substream (seed, b); its worker writes the
    result into the block's trials (last axis) of ``out``, an array or a dict of them."""
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads!r}")
    blocks = _blocks(cfg.trials)
    todo, lock, failed = iter(blocks), threading.Lock(), []

    def take():
        with lock:  # after the first failure no worker takes another block
            return None if failed else next(todo, None)

    def work(helpers=()):  # the caller starts its helpers, then runs blocks beside them
        try:
            for helper in helpers:
                helper.start()
            for b, n in iter(take, None):
                part = block_fn(cfg, n, RngHandle(cfg.seed, b).generator())
                pairs = [(d, part[k]) for k, d in out.items()] if isinstance(out, dict) else [(out, part)]
                for dest, value in pairs:
                    dest[..., b * BLOCK_SIZE:b * BLOCK_SIZE + n] = value
        except BaseException as exc:  # an interrupt too; the caller re-raises the first
            failed.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(blocks), cpus or 1)
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    work(helpers)
    for helper in helpers:  # one whose start was interrupted takes no block
        while helper.is_alive():
            try:
                helper.join()  # its block in flight ends
            except BaseException as exc:  # an interrupt while joining
                failed.append(exc)
    if failed:
        raise failed[0]


def _sq(z: np.ndarray) -> np.ndarray:
    """``|z|^2``, rounded as ``z.real**2 + z.imag**2``."""
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _zf_draw(n: int, K: int, M: int, gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """T's below-diagonal entries, column by column, and ``1 / T_ii`` of n K x M links T Q."""
    below = generate_batch(1, K * (K - 1) // 2, n, RAYLEIGH, gen)[0]
    diag_inv = np.empty((K, n))
    for i in range(K):
        diag_inv[i] = gen.gamma(M - i, size=n)
    np.divide(1.0, np.sqrt(diag_inv, out=diag_inv), out=diag_inv)
    return below, diag_inv


def _zf_solve(below: np.ndarray, diag_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``||T^-1 e_k||^2`` of ``_zf_draw``'s factors T; overwrites the stack of 1 x K rows
    ``x[K, ..., n]``, which may be a strided view, with ``x T^-1``, one column of ``X =
    T^-1`` at a time.  Row k is written only after the last read of ``x[k]``."""
    K, n = diag_inv.shape
    norm2 = np.negative(diag_inv)  # row l holds -1 / T_ll until column l writes its norm
    col = np.empty((K, n), complex)  # X[k:, k] in col[k:]
    term = np.empty(n, complex)  # one T[l, m] X[m, k], or |X[l, k]|^2 in two halves
    re2, im2 = term.view(float)[:n], term.view(float)[n:]
    row = np.empty(x.shape[1:], complex)  # one x_l X[l, k]
    for k in range(K):
        col[k] = diag_inv[k]
        for l in range(k + 1, K):  # X[l, k]; `below` holds T's columns one after another
            T_l = [below[m * (2 * K - m - 1) // 2 + l - m - 1] for m in range(k, l)]  # T[l, k:l]
            np.multiply(T_l[0], col[k], out=col[l])
            for T_lm, X_mk in zip(T_l[1:], col[k + 1:l]):
                col[l] += np.multiply(T_lm, X_mk, out=term)
            col[l] *= norm2[l]  # -1 / T_ll
        np.square(diag_inv[k], out=norm2[k])  # ||X e_k||^2
        for v in col[k + 1:]:
            np.square(v.real, out=re2)
            re2 += np.square(v.imag, out=im2)
            norm2[k] += re2
        x[k] *= col[k]  # (x X)_k reads only x[k:]
        for l in range(k + 1, K):
            x[k] += np.multiply(x[l], col[l], out=row)
    return norm2


def _q(n: int, K: int, M: int, gen: Generator) -> np.ndarray:
    """sqrt(M) times the first K entries of ``n`` uniform unit vectors of C^M, trials last."""
    g = generate_batch(1, K, n, RAYLEIGH, gen)[0]
    scale = _sq(g).sum(axis=0)
    scale += gen.gamma(M - K, size=n)
    np.divide(math.sqrt(M), np.sqrt(scale, out=scale), out=scale)
    g *= scale
    return g


def _si_link(q_rx: np.ndarray, q_tx: np.ndarray, spec: RicianSpec, gen: Generator) -> np.ndarray:
    """SI links ``mu q_rx q_tx^T + nu Z`` seen through the beamformers; trials last."""
    X = generate_batch(len(q_rx), len(q_tx), q_rx.shape[1], RicianSpec(0.0, spec.nu), gen)
    mean = np.empty(X.shape[2:], complex)  # one entry of the mean, for every trial
    for X_r, q_r in zip(X, q_rx):
        mu_q_r = spec.mu * q_r
        for X_rc, q_c in zip(X_r, q_tx):
            X_rc += np.multiply(mu_q_r, q_c, out=mean)
    return X


def _gain(x: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    """``sum over k of |x[k]|^2 / norm2[k]``, the power gains of a walked stack ``x``."""
    gain = _sq(x)
    gain /= norm2
    return gain.sum(axis=0)


def _si_gains_block(cfg: ExperimentConfig, n: int, gen: Generator) -> np.ndarray:
    """Uplink-side residual SI gains ||w_1^T H_si V||^2 for one block."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    T = _zf_draw(n, K, M, gen)  # H_down = T Q, V = Q^H R
    q = _q(n, K, M, gen)
    x = _si_link(_q(n, 1, N, gen), q, cfg.si_spec, gen)[0]  # w_1^T H_si Q^H
    del q
    norm2 = _zf_solve(*T, x)
    del T
    return _gain(x, norm2)


def _empty(what: str, *shape: int, dtype=float) -> np.ndarray:
    """An array allocated before the first block runs; ``what`` names it in an error."""
    try:
        return np.empty(shape, dtype)
    except ValueError as exc:  # a count numpy cannot size; a MemoryError propagates
        raise InvalidParameterError(f"{what} is too large: {exc}") from None


def _try_draw(cfg: ExperimentConfig, count: int) -> None:
    """Allocate, then free, a block's whole draw: ``count`` complex normals a trial,
    every normal a block draws, in one array whose pages are never touched.

    A geometry whose block cannot draw fails at once.  On glibc the freed array
    is an mmapped chunk at least as large as a block's heap use, so freeing it
    raises the dynamic mmap threshold to its size and the trim threshold to
    twice that (mallopt(3)): the main heap then keeps one block's pages between
    blocks instead of trimming them and faulting them back in."""
    n = min(cfg.trials, BLOCK_SIZE)
    _empty(f"a draw of {count} complex normals a trial", count, n, dtype=complex)


def _report(cfg: ExperimentConfig, block_fn, threads: int, gp: GammaParams) -> McReport:
    """The blocks' gains, in one array allocated before the first block runs, and their fit."""
    samples = _empty(f"trials {cfg.trials}", cfg.trials)
    _map_blocks(cfg, block_fn, threads, samples)
    emp_m1 = float(samples.mean())
    emp_m2 = float(np.mean(samples**2))
    ks = ks_distance(samples, lambda x: gamma_cdf(x, gp))
    return McReport(samples, emp_m1, emp_m2, emp_m2 - emp_m1**2, ks)


def run_si_empirical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains ||w_1^T H_si V||^2 with ZF beamformers from Rayleigh channels.

    Sampled from the exact law of the chain, as the module docstring's
    stream-layout statement gives it; no trial is regenerated.
    """
    K = cfg.geom.K
    _try_draw(cfg, K * (K - 1) // 2 + 2 * K + 1)  # T, q, w_1^T 1 and Z
    return _report(cfg, _si_gains_block, threads, gamma_mimo(cfg.geom, cfg.si_spec))


def run_si_theoretical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains drawn directly from the moment-matched Gamma law, matched once."""
    gp = gamma_mimo(cfg.geom, cfg.si_spec)
    return _report(cfg, lambda cfg, n, gen: gen.gamma(gp.kappa, gp.theta, size=n), threads, gp)


# ---------------------------------------------------------------------------
# SINR term sampling


TERMS = ("useful", "mui", "ici", "cmi", "si", "noise", "sinr")


def _terms(useful, ici, cmi, si, noise) -> dict:
    """Assemble a block's SINR terms, (K, n) each, but ``mui``, which ZF nulls exactly."""
    sinr = ici + cmi
    sinr += si
    sinr += noise
    np.divide(useful, sinr, out=sinr)
    return dict(useful=useful, ici=ici, cmi=cmi, si=si, noise=noise, sinr=sinr)


@np.errstate(over="raise")  # a term that overflows, at a huge noise_power say, fails the run
def _sinr_block_downlink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M = cfg.geom.L, cfg.geom.K, cfg.geom.M
    useful = _zf_solve(*_zf_draw(n, K, M, gen), np.empty((K, 0, n), complex))  # no row: D^-2
    np.divide(1, useful, out=useful)

    ici = np.zeros((K, n))
    for _ in range(L - 1):
        T_j = _zf_draw(n, K, M, gen)  # other cell's own downlink
        Z = generate_batch(K, K, n, RAYLEIGH, gen)  # H_cross^T
        cross = _zf_solve(*T_j, Z)
        del T_j
        ici += _gain(Z, cross[:, None])  # H_cross V_j
        del Z

    # Cross-mode: one Rayleigh scalar per FD radio in every cell except self.
    cmi = _sq(generate_batch(L * K - 1, K, n, RAYLEIGH, gen)).sum(axis=0)

    si = _sq(_si_link(np.ones((1, n)), np.ones((K, n)), cfg.si_spec, gen)[0])
    noise = _sq(generate_batch(1, K, n, RAYLEIGH, gen)[0])
    noise *= cfg.noise_power

    return _terms(useful, ici, cmi, si, noise)


@np.errstate(over="raise")
def _sinr_block_uplink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N
    T_up = _zf_draw(n, K, N, gen)  # H_up^T = T' Q', W = R'^T Q'^*
    q_up = _q(n, K, N, gen)
    T_own = _zf_draw(n, K, M, gen)  # own cell's downlink, fixes V
    q_own = _q(n, K, M, gen)
    link = _si_link(q_own, q_up, cfg.si_spec, gen)  # H_si^T
    del q_own, q_up
    own = _zf_solve(*T_own, link)
    del T_own
    up = _zf_solve(*T_up, link.swapaxes(0, 1))  # 1 / D'^2, which scales every W row
    si = _gain(link, own[:, None])  # W H_si V_own
    del link

    # Inter-cell: uplink transmissions of FD radios in other cells; own-cell
    # radios already enter through the multi-user term.
    Z = generate_batch(K * (L - 1), K, n, RAYLEIGH, gen)  # H_x^T
    _zf_solve(*T_up, Z.swapaxes(0, 1))
    ici = _sq(Z).sum(axis=0)  # W H_x
    del Z

    cmi = np.zeros((K, n))
    for _ in range(L - 1):
        T_j = _zf_draw(n, K, M, gen)
        Z = generate_batch(K, K, n, RAYLEIGH, gen)  # H_cross^T
        cross = _zf_solve(*T_j, Z)
        del T_j
        _zf_solve(*T_up, Z.swapaxes(0, 1))
        cmi += _gain(Z, cross[:, None])  # W H_cross V_j
        del Z

    z = generate_batch(1, K, n, RAYLEIGH, gen)  # eta^T
    _zf_solve(*T_up, z.swapaxes(0, 1))
    del T_up
    noise = _sq(z[0])  # W eta
    noise *= cfg.noise_power

    for term in (ici, cmi, si, noise):
        term /= up
    np.divide(1, up, out=up)
    return _terms(up, ici, cmi, si, noise)


def run_sinr(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """All SINR terms over cfg.trials, (trials, K) arrays allocated before any block runs.

    Sampled from the exact law of the ZF chain, as the module docstring's
    stream-layout statement gives it; ``mui`` is exactly 0, a read-only view
    of one zero.  A block's whole draw is tried first, so a cell count too
    large for it fails at once.
    """
    L, K = cfg.geom.L, cfg.geom.K
    if cfg.direction is Direction.DOWNLINK:  # L factors T; each Z; cross-mode; SI and noise
        block_fn = _sinr_block_downlink
        count = L * K * (K - 1) // 2 + K * K * (L - 1) + K * (L * K - 1) + 2 * K
    else:  # L + 1 factors T; q', q and noise; SI, W H_x and each W H_cross
        block_fn = _sinr_block_uplink
        count = (L + 1) * K * (K - 1) // 2 + 3 * K + K * K * (2 * L - 1)
    _try_draw(cfg, count)
    terms = {key: _empty(f"trials {cfg.trials}", cfg.trials, K) for key in TERMS if key != "mui"}
    _map_blocks(cfg, block_fn, threads, {key: out.T for key, out in terms.items()})
    mui = np.broadcast_to(0.0, (cfg.trials, K))
    return {key: terms.get(key, mui) for key in TERMS}
