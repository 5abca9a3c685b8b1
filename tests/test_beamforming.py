import numpy as np
import pytest

from fdsim import GammaParams, RicianSpec, RngHandle, gamma_cdf, ks_distance
from fdsim.channel import RAYLEIGH, generate_batch

from beamforming import zf_decoder_batch, zf_precoder_batch


def _useful_gains_precoder(M, K, trials, seed):
    """Diagonal gains |h_k v_k|^2 of ZF precoding over Rayleigh channels."""
    out = []
    block = 100_000
    for b in range((trials + block - 1) // block):
        n = min(block, trials - b * block)
        g = RngHandle(seed, b).generator()
        H = generate_batch(n, K, M, RAYLEIGH, g)
        V, bad = zf_precoder_batch(H)
        assert not bad.any()
        out.append(np.abs(np.einsum("bkk->bk", H @ V)) ** 2)
    return np.concatenate(out).ravel()


def _useful_gains_decoder(N, K, trials, seed):
    out = []
    block = 100_000
    for b in range((trials + block - 1) // block):
        n = min(block, trials - b * block)
        g = RngHandle(seed, b).generator()
        H = generate_batch(n, N, K, RAYLEIGH, g)
        W, bad = zf_decoder_batch(H)
        assert not bad.any()
        out.append(np.abs(np.einsum("bkk->bk", W @ H)) ** 2)
    return np.concatenate(out).ravel()


def test_precoder_single_stream_is_matched_filter():
    g = RngHandle(10, 0).generator()
    h = generate_batch(1, 1, 8, RAYLEIGH, g)
    V, bad = zf_precoder_batch(h)
    assert not bad.any()
    assert np.allclose(V[0, :, 0], h[0, 0].conj() / np.linalg.norm(h))
    assert np.abs(h @ V).item() ** 2 == pytest.approx(np.linalg.norm(h) ** 2)


def test_precoder_identity_channel():
    V, bad = zf_precoder_batch(np.eye(2)[None])
    assert not bad.any() and np.allclose(V[0], np.eye(2))


def test_decoder_identity_channel():
    W, bad = zf_decoder_batch(np.eye(2)[None])
    assert not bad.any() and np.allclose(W[0], np.eye(2))


def test_decoder_single_stream():
    g = RngHandle(11, 0).generator()
    h = generate_batch(1, 8, 1, RAYLEIGH, g)
    W, bad = zf_decoder_batch(h)
    assert not bad.any()
    assert np.allclose(W[0, 0, :], h[0, :, 0].conj() / np.linalg.norm(h))


def _assert_nulled(G):
    """Each G in the stack is diagonal, with positive real diagonal entries."""
    diag = np.einsum("bkk->bk", G)
    off = np.abs(G - diag[:, :, None] * np.eye(G.shape[-1]))
    assert np.all(diag.real > 0)
    assert np.all(off.max(axis=(1, 2)) < 1e-8 * np.abs(diag).min(axis=1))


@pytest.mark.parametrize("K,M", [(1, 4), (2, 4), (3, 16), (8, 8)])
def test_zf_nulling_and_norms(K, M):
    g = RngHandle(12, K * 100 + M).generator()
    H = generate_batch(64, K, M, RAYLEIGH, g)
    V, bad = zf_precoder_batch(H)
    assert not bad.any()
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-10)
    _assert_nulled(H @ V)


@pytest.mark.parametrize("K,N", [(1, 4), (3, 8), (4, 4)])
def test_zf_decoder_nulling_and_norms(K, N):
    g = RngHandle(13, K * 100 + N).generator()
    H = generate_batch(64, N, K, RAYLEIGH, g)
    W, bad = zf_decoder_batch(H)
    assert not bad.any()
    assert np.allclose(np.linalg.norm(W, axis=2), 1.0, atol=1e-10)
    _assert_nulled(W @ H)


def test_precoder_useful_gain_is_gamma():
    # |h_k v_k|^2 ~ Gamma(M-K+1, 1) for M=16, K=3
    gains = _useful_gains_precoder(16, 3, 334_000, seed=20)[: 3 * 334_000]
    assert gains.mean() == pytest.approx(14.0, rel=0.01)
    ks = ks_distance(gains, lambda x: gamma_cdf(x, GammaParams(14.0, 1.0)))
    assert ks <= 0.01


def test_decoder_useful_gain_is_gamma():
    gains = _useful_gains_decoder(8, 3, 334_000, seed=21)
    assert gains.mean() == pytest.approx(6.0, rel=0.01)
    ks = ks_distance(gains, lambda x: gamma_cdf(x, GammaParams(6.0, 1.0)))
    assert ks <= 0.01


def test_cross_gain_is_exponential():
    # |w^T h|^2 ~ Gamma(1,1) for h independent of w
    g = RngHandle(22, 0).generator()
    H = generate_batch(200_000, 8, 2, RAYLEIGH, g)
    W, _ = zf_decoder_batch(H)
    h_other = generate_batch(200_000, 8, 1, RAYLEIGH, g)
    gains = np.abs(W[:, 0:1, :] @ h_other)[:, 0, 0] ** 2
    assert gains.mean() == pytest.approx(1.0, rel=0.01)
    ks = ks_distance(gains, lambda x: gamma_cdf(x, GammaParams(1.0, 1.0)))
    assert ks <= 0.01


def test_residual_si_gain_mean_single_stream():
    # mean of ||w^T H V||^2 at K=1 is mu^2 + nu^2 = 1.25
    spec = RicianSpec(0.5, 1.0)
    total, n = 0.0, 200_000
    block = 100_000
    for b in range(n // block):
        g = RngHandle(23, b).generator()
        H_si = generate_batch(block, 8, 16, spec, g)
        H_down = generate_batch(block, 1, 16, RAYLEIGH, g)
        H_up = generate_batch(block, 8, 1, RAYLEIGH, g)
        V, _ = zf_precoder_batch(H_down)
        W, _ = zf_decoder_batch(H_up)
        total += float(np.sum(np.abs(W @ H_si @ V) ** 2))
    assert total / n == pytest.approx(1.25, rel=0.01)


def test_singular_channel_rejected():
    H = np.ones((1, 2, 4), dtype=complex)  # identical rows: rank 1
    assert zf_precoder_batch(H)[1].all()
    assert zf_decoder_batch(H.transpose(0, 2, 1))[1].all()


def _rank_deficient(n, K, M, seed):
    """n exactly rank-(K-1) K x M complex matrices."""
    g = RngHandle(seed, 0).generator()
    A = generate_batch(n, K, K - 1, RAYLEIGH, g)
    B = generate_batch(n, K - 1, M, RAYLEIGH, g)
    return A @ B


@pytest.mark.parametrize("K,M", [(2, 4), (3, 16), (8, 64), (2, 2), (4, 4)])
def test_rank_deficient_always_flagged(K, M):
    H = _rank_deficient(4000, K, M, seed=K * 100 + M)
    _, bad_v = zf_precoder_batch(H)
    _, bad_w = zf_decoder_batch(H.transpose(0, 2, 1))
    assert bad_v.all() and bad_w.all()


@pytest.mark.parametrize("K,M", [(2, 4), (3, 16), (8, 64)])
def test_full_rank_draws_not_flagged(K, M):
    g = RngHandle(14, K * 100 + M).generator()
    H = generate_batch(5000, K, M, RAYLEIGH, g)
    assert not zf_precoder_batch(H)[1].any()
    assert not zf_decoder_batch(H.transpose(0, 2, 1))[1].any()
