"""Zero-forcing precoder/decoder construction and residual SI power gain.

ZF beamformers are the normalised columns (rows) of the Moore-Penrose
pseudo-inverse of the downlink (uplink) channel.  One batched kernel,
``zf_precoder_batch``, computes them all: the decoder is the precoder of
the transposed channel, and the single-matrix routines run the kernel on
a batch of one.
"""
from __future__ import annotations

import numpy as np

from .exceptions import InvalidParameterError, SingularChannelError

__all__ = ["zf_precoder", "zf_decoder", "residual_si_gain"]


def _zf_one(H: np.ndarray, zf_batch) -> np.ndarray:
    out, bad = zf_batch(H[None])
    if bad[0]:
        raise SingularChannelError(f"channel matrix of shape {H.shape} is rank deficient")
    return out[0]


def zf_precoder(H_down: np.ndarray) -> np.ndarray:
    """ZF precoder: columns of H^+ = H^H (H H^H)^-1, scaled to unit norm.

    ``H_down`` is the K x M combined downlink channel with K <= M; the
    result V is M x K and satisfies H_down @ V = diagonal with positive
    real entries.
    """
    H = np.asarray(H_down, dtype=complex)
    if H.ndim != 2:
        raise InvalidParameterError("H_down must be a 2-D matrix")
    K, M = H.shape
    if K > M:
        raise InvalidParameterError(f"need K <= M, got K={K}, M={M}")
    return _zf_one(H, zf_precoder_batch)


def zf_decoder(H_up: np.ndarray) -> np.ndarray:
    """ZF decoder: rows of H^+ = (H^H H)^-1 H^H, scaled to unit norm.

    ``H_up`` is the N x K combined uplink channel with K <= N; the result
    W is K x N and satisfies W @ H_up = diagonal with positive real entries.
    """
    H = np.asarray(H_up, dtype=complex)
    if H.ndim != 2:
        raise InvalidParameterError("H_up must be a 2-D matrix")
    N, K = H.shape
    if K > N:
        raise InvalidParameterError(f"need K <= N, got K={K}, N={N}")
    return _zf_one(H, zf_decoder_batch)


def residual_si_gain(w_row: np.ndarray, H_si: np.ndarray, V: np.ndarray) -> float:
    """Residual SI power gain ||w^T H V||^2 for one decoder row."""
    w = np.asarray(w_row, dtype=complex).reshape(-1)
    H = np.asarray(H_si, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if H.ndim != 2 or V.ndim != 2 or w.shape[0] != H.shape[0] or H.shape[1] != V.shape[0]:
        raise InvalidParameterError(
            f"incompatible shapes: w {w.shape}, H {H.shape}, V {V.shape}"
        )
    row = w @ H @ V
    return float(np.real(np.vdot(row, row)))


# ---------------------------------------------------------------------------
# Batched variants used by the Monte Carlo engine.  Rank deficiency is
# reported as a boolean mask instead of an exception so callers can
# regenerate the offending trials.

def _gram_bad(G: np.ndarray, dim_max: int) -> np.ndarray:
    # eigvalsh is accurate to about eps * ev_max, so a smaller eigenvalue
    # is indistinguishable from zero: the channel is numerically rank
    # deficient (cond(H) >= 1/sqrt(dim_max * eps)).
    ev = np.linalg.eigvalsh(G)
    return ev[..., 0] <= dim_max * np.finfo(float).eps * ev[..., -1]


def zf_precoder_batch(H_down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched zf_precoder over shape (B, K, M); returns (V, bad_mask)."""
    H = np.asarray(H_down, dtype=complex)
    B, K, M = H.shape
    G = H @ H.conj().transpose(0, 2, 1)
    bad = _gram_bad(G, max(K, M))
    G[bad] = np.eye(K)
    pinv = np.linalg.solve(G, H).conj().transpose(0, 2, 1)
    return pinv / np.linalg.norm(pinv, axis=1, keepdims=True), bad


def zf_decoder_batch(H_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched zf_decoder over shape (B, N, K); returns (W, bad_mask).

    W is the transposed ZF precoder of the transposed channel.
    """
    V, bad = zf_precoder_batch(np.asarray(H_up, dtype=complex).transpose(0, 2, 1))
    return V.transpose(0, 2, 1), bad
