"""Batched zero-forcing precoder/decoder construction.

ZF beamformers are the normalised columns (rows) of the Moore-Penrose
pseudo-inverse of the downlink (uplink) channel.  One batched kernel,
``zf_precoder_batch``, computes them all: the decoder is the precoder of
the transposed channel.  Rank deficiency is reported as a boolean mask
instead of an exception so callers can regenerate the offending trials.
"""
from __future__ import annotations

import numpy as np

__all__ = ["zf_precoder_batch", "zf_decoder_batch"]


def _gram_bad(G: np.ndarray, dim_max: int) -> np.ndarray:
    # eigvalsh is accurate to about eps * ev_max, so a smaller eigenvalue
    # is indistinguishable from zero: the channel is numerically rank
    # deficient (cond(H) >= 1/sqrt(dim_max * eps)).
    ev = np.linalg.eigvalsh(G)
    return ev[..., 0] <= dim_max * np.finfo(float).eps * ev[..., -1]


def zf_precoder_batch(H_down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF precoders: columns of H^+ = H^H (H H^H)^-1, scaled to unit norm.

    ``H_down`` is a stack of K x M downlink channels, K <= M; each V in the
    returned (V, bad_mask) is M x K with H_down @ V diagonal, with positive
    real entries, wherever the mask is False.
    """
    H = np.asarray(H_down, dtype=complex)
    B, K, M = H.shape
    G = H @ H.conj().transpose(0, 2, 1)
    bad = _gram_bad(G, max(K, M))
    G[bad] = np.eye(K)
    pinv = np.linalg.solve(G, H).conj().transpose(0, 2, 1)
    return pinv / np.linalg.norm(pinv, axis=1, keepdims=True), bad


def zf_decoder_batch(H_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF decoders: rows of H^+ = (H^H H)^-1 H^H, scaled to unit norm.

    ``H_up`` is a stack of N x K uplink channels, K <= N; each W in the
    returned (W, bad_mask) is K x N, the transposed ZF precoder of the
    transposed channel, so W @ H_up is diagonal with positive real entries.
    """
    V, bad = zf_precoder_batch(np.asarray(H_up, dtype=complex).transpose(0, 2, 1))
    return V.transpose(0, 2, 1), bad
