"""Monte Carlo engine: residual SI experiments and SINR term sampling.

Trials are partitioned into fixed-size blocks; block ``b`` of a run draws
all of its randomness from the Philox substream (seed, stream_id = b), so
results are bitwise reproducible no matter how many workers execute the
blocks.  SINR runs draw channel matrices: rank-deficient draws
(vanishingly rare for Gaussian matrices) are regenerated from the block's
retry substream (seed, _RETRY_BASE + b) and counted.  SI runs draw no
channel matrix and never regenerate.

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
``a = sqrt(N Beta(1, N - 1))`` has exactly the law of the full chain, up
to the ZF kernel's retry of numerically rank-deficient draws
(cond(H) >= 1/sqrt(max(K, M) eps)), which Gaussian draws essentially
never trigger.  ``T_ii > 0`` almost surely, so nothing is redrawn.  The
degenerate shapes are cases of the formula: M = K gives ``s = 0`` (a
Gamma(0) variate is 0) and N = 1 gives ``a = 1``.  Each block draws, in
this order, each item for all of its trials at once:

- the K(K - 1)/2 below-diagonal entries of T (one ``generate_batch``);
- the K diagonal variates Gamma(M), Gamma(M - 1), ..., Gamma(M - K + 1);
- g (K entries, one ``generate_batch``), then s;
- the Beta(1, N - 1) variate of a, when N > 1;
- z (K entries, one ``generate_batch``).

That is K(K - 1) + 4K normals, K + 1 Gamma and at most one Beta variate
per trial, and one K x K triangular inverse.  ``run_si_theoretical`` draws
n Gamma variates per block.

Stream layout 2 (SINR).  A link that the engine only ever sees between
fixed beamformers, ``A @ H @ B`` with H drawn independently of A and B, is
sampled from its exact law instead of through H (``_sandwich``).  The
entries of H are i.i.d. ``CN(mu, nu^2)``: circularly symmetric about a
real mean.  Given (A, B), ``A @ H @ B`` is then circularly-symmetric
complex Gaussian with mean ``mu (A 1)(1^T B)`` and, for its column-major
vec, covariance ``nu^2 kron((B^H B)^*, A A^H)``.  A Gaussian law is fixed
by these moments, and ``mu (A 1)(1^T B) + nu L_A Z R_B``, with Z a
Rayleigh matrix of shape (rows(A), cols(B)), ``L_A L_A^H = A A^H`` and
``R_B^H R_B = B^H B``, has the same ones.  Such a link costs
2 rows(A) cols(B) normals per trial instead of 2 rows(H) cols(H); the
channels the beamformers are computed from are drawn in full.  Each block
draws, in this order (every draw is one ``generate_batch`` call: all real
parts, then all imaginary parts; ``Z[r x c]`` is a sandwich):

- downlink SINR: H_own (K x M); per other cell, H_j (K x M) then
  Z[K x K] for ``H_cross V_j``; the cross-mode scalars (K x (LK - 1)), the
  SI scalars (K x 1) and, when noise_power > 0, the noise (K x 1);
- uplink SINR: H_up (N x K), H_own (K x M), Z[K x K] for
  ``W H_si V_own``, Z[K x K(L - 1)] for ``W H_x`` when L > 1; per other
  cell, H_j (K x M) then Z[K x K] for ``W H_cross V_j``; when
  noise_power > 0, Z[K x 1] for ``W eta``.

Layout 1 drew every link as its full matrix; layout 2 drew H_down and
H_up in ``run_si_empirical`` too.  The tests keep the full chain, ZF
kernels included, as the reference.
"""
from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .beamforming import zf_decoder_batch, zf_precoder_batch
from .channel import RAYLEIGH, RicianSpec, RngHandle, generate_batch
from .closedform import SystemGeometry, gamma_mimo
from .exceptions import InvalidParameterError
from .stats import GofReport, gamma_cdf, ks_distance

__all__ = [
    "Direction",
    "ExperimentConfig",
    "McReport",
    "run_si_empirical",
    "run_si_theoretical",
    "run_sinr",
]

BLOCK_SIZE = 1 << 14
# Retry substreams live far above any realistic block index.
_RETRY_BASE = 1 << 48


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


@dataclass(frozen=True)
class McReport:
    samples: np.ndarray
    emp_m1: float
    emp_m2: float
    emp_var: float
    gof: GofReport
    regenerated_trials: int = 0


def _blocks(trials: int):
    """(block_index, block_size) partition; fixed regardless of worker count."""
    full, rem = divmod(trials, BLOCK_SIZE)
    out = [(b, BLOCK_SIZE) for b in range(full)]
    if rem:
        out.append((full, rem))
    return out


def _map_blocks(fn, trials: int, threads: int):
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads!r}")
    blocks = _blocks(trials)
    if threads == 1 or len(blocks) == 1:
        return [fn(b, n) for b, n in blocks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda bn: fn(*bn), blocks))


def _streams(cfg: ExperimentConfig, block: int) -> tuple[Generator, Generator]:
    """Main and retry generators of one block; opening them draws nothing."""
    return (
        RngHandle(cfg.seed, block).generator(),
        RngHandle(cfg.seed, _RETRY_BASE + block).generator(),
    )


def _draw_zf(n: int, gen: Generator, retry: Generator, *links) -> tuple[list, list, int]:
    """Draw Rayleigh links and their ZF beamformers for ``n`` trials.

    Each link is ``(rows, cols, zf_fn)``.  Every link is drawn from ``gen``
    and passed through its ``zf_fn``; the trials where any link came back
    rank deficient are then redrawn jointly from ``retry`` until none is
    left.  Returns the channel stacks, the beamformer stacks (both in link
    order) and the number of regenerated trials.
    """
    mats = [generate_batch(n, rows, cols, RAYLEIGH, gen) for rows, cols, _ in links]

    def zf_all(sel):
        outs = [zf_fn(H[sel]) for H, (_, _, zf_fn) in zip(mats, links)]
        return [bf for bf, _ in outs], np.logical_or.reduce([bad for _, bad in outs])

    bfs, bad = zf_all(slice(None))
    idx = np.flatnonzero(bad)
    regen = 0
    while idx.size:
        regen += idx.size
        for H, (rows, cols, _) in zip(mats, links):
            H[idx] = generate_batch(idx.size, rows, cols, RAYLEIGH, retry)
        new, bad = zf_all(idx)
        for bf, b in zip(bfs, new):
            bf[idx] = b
        idx = idx[bad]
    return mats, bfs, regen


def _sandwich(A: np.ndarray, spec: RicianSpec, B: np.ndarray, gen: Generator) -> np.ndarray:
    """Stack of ``A @ H @ B`` for H with i.i.d. ``CN(mu, nu^2)`` entries, H not drawn.

    ``A`` is (rows(A), rows(H)) and ``B`` is (cols(H), cols(B)), either with
    a leading batch axis, and rows(A) <= rows(H), cols(B) <= cols(H).  The
    result is ``mu (A 1)(1^T B) + nu L_A Z R_B`` with Z a Rayleigh stack of
    shape (n, rows(A), cols(B)); the triangular factors come from QR, which,
    unlike a Cholesky factor of the Gram matrix, exists for every A and B.
    """
    (n,) = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    L_A = np.linalg.qr(A.conj().swapaxes(-1, -2), mode="r").conj().swapaxes(-1, -2)
    R_B = np.linalg.qr(B, mode="r")
    Y = spec.nu * (L_A @ generate_batch(n, A.shape[-2], B.shape[-1], RAYLEIGH, gen) @ R_B)
    if spec.mu:
        Y += spec.mu * A.sum(axis=-1, keepdims=True) * B.sum(axis=-2, keepdims=True)
    return Y


def _sq(z: np.ndarray) -> np.ndarray:
    return np.abs(z) ** 2


def _si_gains_block(cfg: ExperimentConfig, block: int, n: int) -> np.ndarray:
    """Uplink-side residual SI gains ||w_1^T H_si V||^2 for one block (layout 3)."""
    K, M, N = cfg.geom.K, cfg.geom.M, cfg.geom.N
    gen = RngHandle(cfg.seed, block).generator()
    T = np.zeros((n, K, K), dtype=complex)  # H_down = T Q
    below = np.tril_indices(K, -1)
    T[:, below[0], below[1]] = generate_batch(n, 1, below[0].size, RAYLEIGH, gen)[:, 0]
    diag = np.arange(K)
    T[:, diag, diag] = np.sqrt(gen.gamma(np.arange(M, M - K, -1), size=(n, K)))
    g = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]
    s = gen.gamma(M - K, size=n)
    q = math.sqrt(M) * g / np.sqrt(np.sum(_sq(g), axis=1) + s)[:, None]  # Q 1
    # |w_1^T 1|; Beta(1, 0) is the point mass at 1, which numpy rejects
    a = np.sqrt(N * gen.beta(1, N - 1, size=n)) if N > 1 else np.ones(n)
    z = generate_batch(n, 1, K, RAYLEIGH, gen)[:, 0]  # w_1^T Z Q^H
    T_inv = np.linalg.inv(T)
    r = cfg.si_spec.mu * a[:, None] * q + cfg.si_spec.nu * z
    y = (r[:, None, :] @ T_inv)[:, 0]
    # D scales column k of T^-1 to unit norm
    return np.sum(_sq(y) / np.sum(_sq(T_inv), axis=1), axis=1)


def _report(cfg: ExperimentConfig, samples: np.ndarray) -> McReport:
    gp = gamma_mimo(cfg.geom, cfg.si_spec)
    emp_m1 = float(samples.mean())
    emp_m2 = float(np.mean(samples**2))
    emp_var = emp_m2 - emp_m1**2
    gof = GofReport(
        ks_statistic=ks_distance(samples, lambda x: gamma_cdf(x, gp)),
        mean_rel_err=abs(emp_m1 - gp.mean) / gp.mean,
        var_rel_err=abs(emp_var - gp.variance) / gp.variance,
        sample_count=samples.size,
    )
    return McReport(
        samples=samples,
        emp_m1=emp_m1,
        emp_m2=emp_m2,
        emp_var=emp_var,
        gof=gof,
    )


def run_si_empirical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains ||w_1^T H_si V||^2 with ZF beamformers from Rayleigh channels.

    Sampled from the exact law of the chain (stream layout 3, see the
    module docstring); no trial is regenerated.
    """
    parts = _map_blocks(lambda b, n: _si_gains_block(cfg, b, n), cfg.trials, threads)
    return _report(cfg, np.concatenate(parts))


def run_si_theoretical(cfg: ExperimentConfig, threads: int = 1) -> McReport:
    """Residual SI gains drawn directly from the moment-matched Gamma law."""
    gp = gamma_mimo(cfg.geom, cfg.si_spec)

    def block(b, n):
        gen = RngHandle(cfg.seed, b).generator()
        return gen.gamma(gp.kappa, gp.theta, size=n)

    parts = _map_blocks(block, cfg.trials, threads)
    return _report(cfg, np.concatenate(parts))


# ---------------------------------------------------------------------------
# SINR term sampling


def _terms(G: np.ndarray, ici, cmi, si, noise, regen: int) -> dict:
    """Assemble a block's SINR terms; row k of G holds radio k's gains."""
    g2 = _sq(G)
    useful = np.einsum("bkk->bk", g2).copy()
    mui = g2.sum(axis=2) - useful
    sinr = useful / (mui + ici + cmi + si + noise)
    return dict(
        useful=useful, mui=mui, ici=ici, cmi=cmi, si=si, noise=noise, sinr=sinr,
        regenerated=regen,
    )


def _sinr_block_downlink(cfg: ExperimentConfig, block: int, n: int) -> dict:
    L, K, M = cfg.geom.L, cfg.geom.K, cfg.geom.M
    gen, retry = _streams(cfg, block)
    down = (K, M, zf_precoder_batch)
    (H_own,), (V_own,), regen = _draw_zf(n, gen, retry, down)

    ici = np.zeros((n, K))
    for _ in range(L - 1):
        _, (V_j,), r = _draw_zf(n, gen, retry, down)  # other cell's own downlink
        regen += r
        ici += _sq(_sandwich(np.eye(K), RAYLEIGH, V_j, gen)).sum(axis=2)  # H_cross V_j

    # Cross-mode: one Rayleigh scalar per FD radio in every cell except self.
    n_cmi = L * K - 1
    if n_cmi > 0:
        cmi = _sq(generate_batch(n, K, n_cmi, RAYLEIGH, gen)).sum(axis=2)
    else:
        cmi = np.zeros((n, K))

    si = _sq(generate_batch(n, K, 1, cfg.si_spec, gen))[:, :, 0]
    if cfg.noise_power > 0:
        eta = generate_batch(n, K, 1, RicianSpec(0.0, math.sqrt(cfg.noise_power)), gen)
        noise = _sq(eta)[:, :, 0]
    else:
        noise = np.zeros((n, K))

    return _terms(H_own @ V_own, ici, cmi, si, noise, regen)


def _sinr_block_uplink(cfg: ExperimentConfig, block: int, n: int) -> dict:
    L, K, M, N = cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N
    gen, retry = _streams(cfg, block)
    down = (K, M, zf_precoder_batch)
    (H_up,), (W,), regen = _draw_zf(n, gen, retry, (N, K, zf_decoder_batch))
    # own cell's downlink channel, fixes V for the SI term
    _, (V_own,), r = _draw_zf(n, gen, retry, down)
    regen += r
    si = _sq(_sandwich(W, cfg.si_spec, V_own, gen)).sum(axis=2)  # W H_si V_own

    # Inter-cell: uplink transmissions of FD radios in other cells; own-cell
    # radios already enter through the multi-user term.
    n_ici = K * (L - 1)
    if n_ici > 0:
        ici = _sq(_sandwich(W, RAYLEIGH, np.eye(n_ici), gen)).sum(axis=2)  # W H_x
    else:
        ici = np.zeros((n, K))

    cmi = np.zeros((n, K))
    for _ in range(L - 1):
        _, (V_j,), r = _draw_zf(n, gen, retry, down)
        regen += r
        cmi += _sq(_sandwich(W, RAYLEIGH, V_j, gen)).sum(axis=2)  # W H_cross V_j

    if cfg.noise_power > 0:
        spec = RicianSpec(0.0, math.sqrt(cfg.noise_power))
        noise = _sq(_sandwich(W, spec, np.ones((1, 1)), gen))[:, :, 0]  # W eta
    else:
        noise = np.zeros((n, K))

    return _terms(W @ H_up, ici, cmi, si, noise, regen)


_TERM_KEYS = ("useful", "mui", "ici", "cmi", "si", "noise", "sinr")


def run_sinr(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """All SINR terms over cfg.trials; arrays of shape (trials, K) per term."""
    block_fn = (
        _sinr_block_downlink if cfg.direction is Direction.DOWNLINK else _sinr_block_uplink
    )
    parts = _map_blocks(lambda b, n: block_fn(cfg, b, n), cfg.trials, threads)
    out = {k: np.concatenate([p[k] for p in parts]) for k in _TERM_KEYS}
    out["regenerated"] = sum(p["regenerated"] for p in parts)
    return out
