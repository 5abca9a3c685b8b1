"""Monte Carlo engine: residual SI experiments and SINR term sampling.

Trials are partitioned into fixed-size blocks; block ``b`` of a run draws
all of its randomness from the Philox substream (seed, stream_id = b), so
results are bitwise reproducible no matter how many workers execute the
blocks.  No run draws a channel matrix or runs a ZF kernel, so no trial is
ever regenerated.

Stream layout 7 (the triangular inverse).  Every ``T^-1`` of layouts 3
and 4 is computed from the packed draws by forward substitution over the
rows, and T is never formed; layout 6 formed T and called
``np.linalg.inv``, and the engine now makes no LAPACK call.  The draws and
their order are unchanged.  K = 1 runs keep every bit (``T^-1`` is
``1 / T_11`` either way); K >= 2 outputs move in their last bits only.

Stream layout 6 (the SINR noise).  Both SINR directions draw the noise at
unit power, last in each block, and multiply its power gain by
``noise_power``.  Layout 5 drew it at ``noise_power`` and skipped it at 0.
Every output bit of a run at ``noise_power`` 1 or 0 stays (``noise`` is
exactly +0 at 0 and at -0.0, stored as 0.0); at 0 each block draws 2K more
normals per trial at its end; other powers move the last bits of ``noise``
and ``sinr``.

Stream layout 5 (the block partition).  Block b holds trials
``[b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)`` with ``BLOCK_SIZE = 4096``; the
last block holds the remainder.  Within a block the draw orders are those
of layouts 3 and 4 below, with the noise of layout 6.  Those layouts cut
16384-trial blocks, so runs of up to 4096 trials keep their bits and
longer runs move.  A 4096-trial block bounds each block's transients and
the CLI writer's buffer, and spreads a run of a few blocks over every
worker.

Stream layout 3 (``run_si_empirical``).  The residual SI gain
``||w_1^T H_si V||^2`` under ZF beamformers from Rayleigh H_down (K x M)
and H_up (N x K) is drawn from a handful of invariant statistics instead
of through the channels.  H_down factors as ``T Q`` with T lower
triangular, ``T_ii^2 ~ Gamma(M - i + 1)`` and ``CN(0, 1)`` entries below
the diagonal, and Q (orthonormal rows) Haar distributed and independent
of T: the complex Bartlett decomposition (Goodman 1963; Edelman 1989).
The ZF precoder is then ``V = Q^H T^-1 D`` with
``D = diag(1 / ||T^-1 e_k||)``.  Write ``H_si = mu 1 1^T + nu Z``.  Then:

- given (w_1, Q), ``w_1^T Z Q^H`` is ``CN(0, I_K)``, since w_1 has unit
  norm and Q^H orthonormal columns; call it z, independent of the rest;
- ``1^T Q^H`` is the conjugate of ``q = Q 1``, which is sqrt(M) times the
  first K entries of a uniform unit vector of C^M:
  ``q = sqrt(M) g / sqrt(||g||^2 + s)`` with ``g ~ CN(0, I_K)`` and
  ``s ~ Gamma(M - K)``; q is circular, so its conjugate has the same law;
- H_up is unitarily invariant, so the decoder row w_1 is uniform on the
  unit sphere of C^N and independent of H_down:
  ``|w_1^T 1|^2 = N Beta(1, N - 1)``, and the circular z absorbs the
  phase of ``w_1^T 1``.

Hence ``gain = ||(mu a q^T + nu z) T^-1 D||^2`` with
``a = sqrt(N Beta(1, N - 1))`` has exactly the law of the full chain: a
Rayleigh H_down has full rank almost surely, so its ZF precoder exists
and no draw is conditioned away; ``T_ii > 0`` almost surely, so nothing
is redrawn.  The degenerate shapes are cases of the formula: M = K gives
``s = 0`` (a Gamma(0) variate is 0) and N = 1 gives ``a = 1``.  Each
block draws, in this order, each item for all of its trials at once:

- the K(K - 1)/2 below-diagonal entries of T (one ``generate_batch``);
- the K diagonal variates Gamma(M), Gamma(M - 1), ..., Gamma(M - K + 1);
- g (K entries, one ``generate_batch``), then s;
- the Beta(1, N - 1) variate of a, when N > 1;
- z (K entries, one ``generate_batch``).

That is K(K - 1) + 4K normals, K + 1 Gamma and at most one Beta variate
per trial, and one K x K triangular inverse.  ``run_si_theoretical`` draws
n Gamma variates per block.

Stream layout 4 (``run_sinr``).  Every beamformer is reduced to the
Bartlett factors of the Rayleigh channel it is computed from.  A K x M
downlink ``T Q`` has the ZF precoder ``V = Q^H R`` with ``R = T^-1 D``,
as above.  The uplink H_up (N x K) is drawn through its transpose,
``H_up^T = T' Q'`` with ``T'_ii^2 ~ Gamma(N - i + 1)``; its ZF decoder is
the transposed precoder of H_up^T, ``W = L_A Q'^*`` with
``L_A = (T'^-1 D')^T``.  Hence ``H_own V_own = D`` and ``W H_up = D'``
exactly: ``useful`` is D^2 (downlink) or D'^2 (uplink) and ``mui`` is 0.
Every other link is drawn independently of the beamformers around it, and
Q^H, Q'^* are Haar and independent of the triangular factors, so:

- a Rayleigh H seen as ``H V_j`` (K x M) is ``(H Q_j^H) R_j``, and
  ``H Q_j^H`` is a K x K Rayleigh Z; seen as ``W H`` (N x c), it is
  ``L_A Z`` with Z = ``Q'^* H`` a K x c Rayleigh; seen as ``W H V_j``, it
  is ``L_A Z R_j`` with Z K x K Rayleigh;
- the noise ``W eta`` is ``sqrt(noise_power) L_A z``, z a ``CN(0, I_K)``;
- ``W H_si V_own`` with ``H_si = mu 1 1^T + nu Z_si`` is
  ``L_A (mu conj(q') conj(q)^T + nu Z) R_own``, with ``q' = Q' 1`` and
  ``q = Q 1`` drawn as in layout 3 (s' ~ Gamma(N - K) for q'); q and q'
  are circular and independent of everything else, so the engine drops
  the conjugates.

Each of these is exact in law, and ``T_ii > 0`` almost surely, so nothing
is redrawn.  Each block draws, in this order (T and the optional
(g, s) of q in the layout-3 order; ``Z[r x c]`` is one ``generate_batch``
of a Rayleigh r x c stack):

- downlink: T_own; per other cell, T_j then Z[K x K] for
  ``H_cross V_j``; the cross-mode scalars Z[K x (LK - 1)] when LK > 1, the
  SI scalars (K x 1, Rician) and the noise z[K x 1];
- uplink: T' with q', T_own with q, Z[K x K] for ``W H_si V_own``
  (Rician spread nu), Z[K x K(L - 1)] for ``W H_x`` when L > 1; per other
  cell, T_j then Z[K x K] for ``W H_cross V_j``; z[K x 1] for ``W eta``.

An uplink trial thus takes (L + 1) K(K - 1) + 6K + 2K^2 (2L - 1) normals
(42 at L = K = 2), (L + 1) K + 2 Gamma variates and L + 1 K x K
triangular inverses, whatever M and N.  The tests keep the full chain, ZF
kernels included, as the reference.
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


def _bartlett_inv(n: int, K: int, M: int, gen: Generator) -> np.ndarray:
    """Inverse ``T^-1`` of the Bartlett factor T of ``n`` Rayleigh K x M links
    ``T Q``, by forward substitution over the rows; T itself is never formed.

    Row i of T's below-diagonal part is the slice ``[i(i-1)/2, i(i+1)/2)`` of
    the packed draw, and row i of ``X = T^-1`` is
    ``X[i, :i] = -(T[i, :i] @ X[:i, :i]) / T_ii`` with ``X[i, i] = 1 / T_ii``.
    """
    below = generate_batch(n, 1, K * (K - 1) // 2, RAYLEIGH, gen)[:, 0]
    diag_inv = 1.0 / np.sqrt(gen.gamma(np.arange(M, M - K, -1), size=(n, K)))
    X = np.zeros((n, K, K), dtype=complex)
    for i in range(K):
        row = below[:, i * (i - 1) // 2:i * (i + 1) // 2]
        X[:, i, :i] = (row[:, None, :] @ X[:, :i, :i])[:, 0] * -diag_inv[:, i, None]
        X[:, i, i] = diag_inv[:, i]
    return X


def _q(n: int, K: int, M: int, gen: Generator) -> np.ndarray:
    """``q = Q 1`` of the links whose T was just drawn; Q itself is never formed."""
    g = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]
    s = gen.gamma(M - K, size=n)
    return math.sqrt(M) * g / np.sqrt(np.sum(_sq(g), axis=1) + s)[:, None]


def _si_gains_block(cfg: ExperimentConfig, n: int, gen: Generator) -> np.ndarray:
    """Uplink-side residual SI gains ||w_1^T H_si V||^2 for one block (layout 3)."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    T_inv = _bartlett_inv(n, K, M, gen)  # H_down = T Q
    q = _q(n, K, M, gen)
    # |w_1^T 1|; Beta(1, 0) is the point mass at 1, which numpy rejects
    a = np.sqrt(N * gen.beta(1, N - 1, size=n)) if N > 1 else np.ones(n)
    z = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]  # w_1^T Z Q^H
    r = cfg.si_spec.mu * a[:, None] * q + cfg.si_spec.nu * z
    y = (r[:, None, :] @ T_inv)[:, 0]
    # D scales column k of T^-1 to unit norm
    return np.sum(_sq(y) / np.sum(_sq(T_inv), axis=1), axis=1)


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

    Sampled from the exact law of the chain (stream layout 3, see the
    module docstring); no trial is regenerated.
    """
    return _report(cfg, np.concatenate(_map_blocks(cfg, _si_gains_block, threads)))


def run_si_theoretical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains drawn directly from the moment-matched Gamma law."""
    return _report(cfg, np.concatenate(_map_blocks(cfg, _gamma_block, threads)))


# ---------------------------------------------------------------------------
# SINR term sampling


def _zf_factor(T_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R = T^-1 D`` and ``D^2`` of the ZF precoder ``Q^H R`` of the link ``T Q``."""
    d2 = 1.0 / np.sum(_sq(T_inv), axis=1)
    return T_inv * np.sqrt(d2)[:, None, :], d2


def _terms(useful, ici, cmi, si, noise) -> dict:
    """Assemble a block's SINR terms; ZF nulls the multi-user term exactly."""
    mui = np.zeros_like(useful)
    sinr = useful / (mui + ici + cmi + si + noise)
    return dict(useful=useful, mui=mui, ici=ici, cmi=cmi, si=si, noise=noise, sinr=sinr)


def _sinr_block_downlink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M = cfg.geom.L, cfg.geom.K, cfg.geom.M
    _, useful = _zf_factor(_bartlett_inv(n, K, M, gen))  # H_own V_own = D

    ici = np.zeros((n, K))
    for _ in range(L - 1):
        R_j, _ = _zf_factor(_bartlett_inv(n, K, M, gen))  # other cell's own downlink
        ici += _sq(generate_batch(n, K, K, RAYLEIGH, gen) @ R_j).sum(axis=2)  # H_cross V_j

    # Cross-mode: one Rayleigh scalar per FD radio in every cell except self.
    cmi = _sq(generate_batch(n, K, L * K - 1, RAYLEIGH, gen)).sum(axis=2)

    si = _sq(generate_batch(n, K, 1, cfg.si_spec, gen))[:, :, 0]
    noise = cfg.noise_power * _sq(generate_batch(n, K, 1, RAYLEIGH, gen))[:, :, 0]

    return _terms(useful, ici, cmi, si, noise)


def _sinr_block_uplink(cfg: ExperimentConfig, n: int, gen: Generator) -> dict:
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N
    R_up, useful = _zf_factor(_bartlett_inv(n, K, N, gen))  # H_up^T = T' Q', W H_up = D'
    q_up = _q(n, K, N, gen)
    L_A = R_up.swapaxes(-1, -2)  # W = L_A Q'^*
    R_own, _ = _zf_factor(_bartlett_inv(n, K, M, gen))  # own cell's downlink, fixes V
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
        R_j, _ = _zf_factor(_bartlett_inv(n, K, M, gen))
        cmi += _sq(L_A @ generate_batch(n, K, K, RAYLEIGH, gen) @ R_j).sum(axis=2)  # W H_cross V_j

    noise = cfg.noise_power * _sq(L_A @ generate_batch(n, K, 1, RAYLEIGH, gen))[:, :, 0]  # W eta

    return _terms(useful, ici, cmi, si, noise)


def run_sinr(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """All SINR terms over cfg.trials; arrays of shape (trials, K) per term.

    Sampled from the exact law of the ZF chain (stream layouts 4 and 6,
    see the module docstring); ``mui`` is exactly 0.
    """
    block_fn = (
        _sinr_block_downlink if cfg.direction is Direction.DOWNLINK else _sinr_block_uplink
    )
    parts = _map_blocks(cfg, block_fn, threads)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
