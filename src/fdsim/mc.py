"""Monte Carlo engine: residual SI experiments and SINR term sampling.

Stream layout 8, stated in full; CHANGES.md records the earlier layouts.

Blocks.  A run is cut into blocks of ``BLOCK_SIZE = 4096`` trials: block b
holds trials ``[b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)`` and the last block
the remainder.  Block b draws all of its randomness from the Philox
substream (seed, stream_id = b), each item below for all of its trials at
once, so results are bitwise reproducible whatever the number of workers.
No run draws a channel matrix or runs a ZF kernel, and nothing is redrawn.

ZF factors (``_zf``).  A Rayleigh K x M link factors as ``T Q`` (the
complex Bartlett decomposition; Goodman 1963; Edelman 1989): T is lower
triangular with ``T_ii^2 ~ Gamma(M - i + 1)`` and ``CN(0, 1)`` entries
below the diagonal, and Q (orthonormal rows) is Haar distributed and
independent of T.  The link has full rank and ``T_ii > 0`` almost surely,
so its ZF precoder ``V = Q^H R`` with ``R = T^-1 D`` and
``D = diag(1 / ||T^-1 e_k||)`` exists, with no draw conditioned away, and
``T Q V = D``.  ``_zf``
draws the K(K - 1)/2 below-diagonal entries row by row (one
``generate_batch``), then the K diagonal variates Gamma(M), ...,
Gamma(M - K + 1), and returns R and D^2.  It inverts T by forward
substitution over the rows, with no LAPACK call and without forming T:
row i of ``X = T^-1`` is ``X[i, :i] = -(T[i, :i] @ X[:i, :i]) / T_ii`` and
``X[i, i] = 1 / T_ii``, where ``T[i, :i]`` is the packed slice
``[i(i-1)/2, i(i+1)/2)``.  ``q = Q 1`` of the link whose T was just drawn
(``_q``) is ``sqrt(M) g / sqrt(||g||^2 + s)``, sqrt(M) times the first K
entries of a uniform unit vector of C^M, with ``g ~ CN(0, I_K)`` (one
``generate_batch``) and then ``s ~ Gamma(M - K)`` (0 at M = K).

SI (``run_si_empirical``).  The gain ``||w_1^T H_si V||^2`` under ZF
beamformers from Rayleigh H_down (K x M) and H_up (N x K), with
``H_si = mu 1 1^T + nu Z``, has exactly the law of
``||(mu a q + nu z) R||^2``:

- given (w_1, Q), ``w_1^T Z Q^H`` is a ``CN(0, I_K)`` z, since w_1 has
  unit norm and Q^H orthonormal columns;
- ``1^T Q^H`` is the conjugate of q, which is circular, so q stands in;
- H_up is unitarily invariant, so the decoder row w_1 is uniform on the
  unit sphere of C^N and independent of H_down:
  ``a^2 = |w_1^T 1|^2 = N Beta(1, N - 1)`` (a = 1 at N = 1), and the
  circular z absorbs the phase of ``w_1^T 1``.

Each block draws ``_zf`` of H_down (K, M), then q (g, s), then the
Beta(1, N - 1) variate of a when N > 1, then z (one ``generate_batch``).
``run_si_theoretical`` draws one Gamma(kappa, theta) variate per trial.

SINR (``run_sinr``).  Every beamformer comes from the Bartlett factors of
the Rayleigh channel it is computed from: a cell's downlink ``T Q`` gives
``V = Q^H R``; the uplink H_up (N x K) is drawn through its transpose
``H_up^T = T' Q'``, whose ZF decoder is ``W = L_A Q'^*`` with
``L_A = R'^T``.  So ``useful`` is exactly D^2 (downlink) or D'^2 (uplink)
and ``mui`` is 0.  Every other link is independent of the beamformers
around it, and Q^H, Q'^* are Haar and independent of the triangular
factors, so, with ``Z[r x c]`` one ``generate_batch`` of a Rayleigh stack:

- a Rayleigh H seen as ``H V_j`` is ``Z[K x K] R_j``; as ``W H`` (N x c)
  it is ``L_A Z[K x c]``; as ``W H V_j`` it is ``L_A Z[K x K] R_j``;
- ``W H_si V_own`` is ``L_A (mu q' q^T + nu Z[K x K]) R_own``, with q' and
  q the ``_q`` of T' and T_own (circular, so the conjugates drop);
- the noise ``W eta`` is ``sqrt(noise_power) L_A z[K x 1]``.

Each block draws, in this order:

- downlink: ``_zf`` of T_own; per other cell, ``_zf`` of T_j then
  Z[K x K]; the cross-mode scalars Z[K x (LK - 1)]; the SI scalars
  (K x 1, Rician); the noise z[K x 1];
- uplink: ``_zf`` of T' (K, N) and q'; ``_zf`` of T_own and q; Z[K x K]
  of W H_si V_own (spread nu); Z[K x K(L - 1)] of W H_x; per other cell,
  ``_zf`` of T_j then Z[K x K]; the noise z[K x 1].

Both directions draw the noise at unit power, also at ``noise_power`` 0,
and multiply its power gain by ``noise_power``.

Counts per trial (real normals; each ``CN`` entry is two).  ``si``:
K(K - 1) + 4K normals, K + 1 Gamma and at most one Beta variate, one
K x K substitution.  Downlink: L K(K - 1) + 2K^2 (L - 1) + 2K (LK - 1)
+ 4K normals, L K Gamma variates, L substitutions.  Uplink:
(L + 1) K(K - 1) + 6K + 2K^2 (2L - 1) normals (42 at L = K = 2),
(L + 1) K + 2 Gamma variates, L + 1 substitutions.  None depends on M or
N.  The tests keep the full chain, ZF kernels included, as the reference.
"""
from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .channel import RAYLEIGH, RicianSpec, RngHandle, generate_batch
from .closedform import SystemGeometry, gamma_mimo
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
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise InvalidParameterError(
                f"seed must be an integer in [0, 2**64), got {self.seed!r}"
            )
        if not (self.noise_power >= 0 and math.isfinite(self.noise_power)):
            raise InvalidParameterError(
                f"noise_power must be >= 0, got {self.noise_power}"
            )
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


def _map_blocks(cfg: ExperimentConfig, block_fn, threads: int) -> list:
    """``block_fn(cfg, n, gen)`` per block; block b draws from substream (seed, b)."""
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads!r}")
    blocks = _blocks(cfg.trials)

    def run(block):
        b, n = block
        return block_fn(cfg, n, RngHandle(cfg.seed, b).generator())

    # a failing block or an interrupt cancels the queued blocks in map's iterator
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(run, blocks))


def _sq(z: np.ndarray) -> np.ndarray:
    return np.abs(z) ** 2


def _zf(n: int, K: int, M: int, gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """``R = T^-1 D`` and ``D^2`` of the ZF precoder ``Q^H R`` of ``n`` Rayleigh
    K x M links ``T Q``; T^-1 by forward substitution, T never formed."""
    below = generate_batch(n, 1, K * (K - 1) // 2, RAYLEIGH, gen)[:, 0]
    diag_inv = 1.0 / np.sqrt(gen.gamma(np.arange(M, M - K, -1), size=(n, K)))
    X = np.zeros((n, K, K), dtype=complex)
    for i in range(K):
        row = below[:, i * (i - 1) // 2:i * (i + 1) // 2]
        X[:, i, :i] = (row[:, None, :] @ X[:, :i, :i])[:, 0] * -diag_inv[:, i, None]
        X[:, i, i] = diag_inv[:, i]
    d2 = 1.0 / np.sum(_sq(X), axis=1)
    X *= np.sqrt(d2)[:, None, :]
    return X, d2


def _q(n: int, K: int, M: int, gen: Generator) -> np.ndarray:
    """``q = Q 1`` of the links whose T was just drawn; Q itself is never formed."""
    g = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]
    s = gen.gamma(M - K, size=n)
    return math.sqrt(M) * g / np.sqrt(np.sum(_sq(g), axis=1) + s)[:, None]


def _si_gains_block(cfg: ExperimentConfig, n: int, gen: Generator) -> np.ndarray:
    """Uplink-side residual SI gains ||w_1^T H_si V||^2 for one block."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    R, _ = _zf(n, K, M, gen)  # H_down = T Q, V = Q^H R
    q = _q(n, K, M, gen)
    # |w_1^T 1|; Beta(1, 0) is the point mass at 1, which numpy rejects
    a = np.sqrt(N * gen.beta(1, N - 1, size=n)) if N > 1 else np.ones(n)
    z = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]  # w_1^T Z Q^H
    r = cfg.si_spec.mu * a[:, None] * q + cfg.si_spec.nu * z
    return np.sum(_sq((r[:, None, :] @ R)[:, 0]), axis=1)


def _gamma_block(cfg: ExperimentConfig, n: int, gen: Generator) -> np.ndarray:
    """One block of gains drawn from the moment-matched Gamma law."""
    gp = gamma_mimo(cfg.geom, cfg.si_spec)
    return gen.gamma(gp.kappa, gp.theta, size=n)


def _report(cfg: ExperimentConfig, samples: np.ndarray) -> McReport:
    gp = gamma_mimo(cfg.geom, cfg.si_spec)
    emp_m1 = float(samples.mean())
    emp_m2 = float(np.mean(samples**2))
    ks = ks_distance(samples, lambda x: gamma_cdf(x, gp))
    return McReport(samples, emp_m1, emp_m2, emp_m2 - emp_m1**2, ks)


def run_si_empirical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains ||w_1^T H_si V||^2 with ZF beamformers from Rayleigh channels.

    Sampled from the exact law of the chain, as the module docstring's
    stream-layout statement gives it; no trial is regenerated.
    """
    return _report(cfg, np.concatenate(_map_blocks(cfg, _si_gains_block, threads)))


def run_si_theoretical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains drawn directly from the moment-matched Gamma law."""
    return _report(cfg, np.concatenate(_map_blocks(cfg, _gamma_block, threads)))


# ---------------------------------------------------------------------------
# SINR term sampling


def _terms(useful, ici, cmi, si, noise) -> dict:
    """Assemble a block's SINR terms; ZF nulls the multi-user term exactly."""
    mui = np.zeros_like(useful)
    sinr = useful / (mui + ici + cmi + si + noise)
    return dict(useful=useful, mui=mui, ici=ici, cmi=cmi, si=si, noise=noise, sinr=sinr)


def _sinr_block_downlink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M = cfg.geom.L, cfg.geom.K, cfg.geom.M
    _, useful = _zf(n, K, M, gen)  # H_own V_own = D

    ici = np.zeros((n, K))
    for _ in range(L - 1):
        R_j, _ = _zf(n, K, M, gen)  # other cell's own downlink
        ici += _sq(generate_batch(n, K, K, RAYLEIGH, gen) @ R_j).sum(axis=2)  # H_cross V_j

    # Cross-mode: one Rayleigh scalar per FD radio in every cell except self.
    cmi = _sq(generate_batch(n, K, L * K - 1, RAYLEIGH, gen)).sum(axis=2)

    si = _sq(generate_batch(n, K, 1, cfg.si_spec, gen))[:, :, 0]
    noise = cfg.noise_power * _sq(generate_batch(n, K, 1, RAYLEIGH, gen))[:, :, 0]

    return _terms(useful, ici, cmi, si, noise)


def _sinr_block_uplink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N
    R_up, useful = _zf(n, K, N, gen)  # H_up^T = T' Q', W H_up = D'
    q_up = _q(n, K, N, gen)
    L_A = R_up.swapaxes(-1, -2)  # W = L_A Q'^*
    R_own, _ = _zf(n, K, M, gen)  # own cell's downlink, fixes V
    q_own = _q(n, K, M, gen)
    mu, nu = cfg.si_spec.mu, cfg.si_spec.nu
    X = generate_batch(n, K, K, RicianSpec(0.0, nu), gen)
    X += mu * q_up[:, :, None] * q_own[:, None, :]
    si = _sq(L_A @ X @ R_own).sum(axis=2)  # W H_si V_own

    # Inter-cell: uplink transmissions of FD radios in other cells; own-cell
    # radios already enter through the multi-user term.
    ici = _sq(L_A @ generate_batch(n, K, K * (L - 1), RAYLEIGH, gen)).sum(axis=2)  # W H_x

    cmi = np.zeros((n, K))
    for _ in range(L - 1):
        R_j, _ = _zf(n, K, M, gen)
        cmi += _sq(L_A @ generate_batch(n, K, K, RAYLEIGH, gen) @ R_j).sum(axis=2)  # W H_cross V_j

    noise = cfg.noise_power * _sq(L_A @ generate_batch(n, K, 1, RAYLEIGH, gen))[:, :, 0]  # W eta

    return _terms(useful, ici, cmi, si, noise)


def run_sinr(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """All SINR terms over cfg.trials; arrays of shape (trials, K) per term.

    Sampled from the exact law of the ZF chain, as the module docstring's
    stream-layout statement gives it; ``mui`` is exactly 0.
    """
    block_fn = (
        _sinr_block_downlink if cfg.direction is Direction.DOWNLINK else _sinr_block_uplink
    )
    parts = _map_blocks(cfg, block_fn, threads)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
