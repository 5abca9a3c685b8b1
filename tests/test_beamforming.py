import numpy as np
import pytest

from fdsim import (
    GammaParams,
    InvalidParameterError,
    RicianSpec,
    RngHandle,
    SingularChannelError,
    gamma_cdf,
    ks_distance,
    residual_si_gain,
    zf_decoder,
    zf_precoder,
)
from fdsim.beamforming import zf_decoder_batch, zf_precoder_batch
from fdsim.channel import RAYLEIGH, generate_batch


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
    h = generate_batch(1, 1, 8, RAYLEIGH, g)[0]
    v = zf_precoder(h)
    assert np.allclose(v[:, 0], h[0].conj() / np.linalg.norm(h))
    assert residual_si_gain(np.array([1.0]), h, v) == pytest.approx(
        np.linalg.norm(h) ** 2
    )


def test_precoder_identity_channel():
    assert np.allclose(zf_precoder(np.eye(2)), np.eye(2))


def test_decoder_identity_channel():
    assert np.allclose(zf_decoder(np.eye(2)), np.eye(2))


def test_decoder_single_stream():
    g = RngHandle(11, 0).generator()
    h = generate_batch(1, 8, 1, RAYLEIGH, g)[0]
    w = zf_decoder(h)
    assert np.allclose(w[0, :], h[:, 0].conj() / np.linalg.norm(h))


@pytest.mark.parametrize("K,M", [(1, 4), (2, 4), (3, 16), (8, 8)])
def test_zf_nulling_and_norms(K, M):
    g = RngHandle(12, K * 100 + M).generator()
    H = generate_batch(1, K, M, RAYLEIGH, g)[0]
    V = zf_precoder(H)
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-10)
    G = H @ V
    diag = np.abs(np.diag(G))
    off = np.abs(G - np.diag(np.diag(G)))
    assert np.all(np.diag(G).real > 0)
    assert off.max() < 1e-8 * diag.min()


@pytest.mark.parametrize("K,N", [(1, 4), (3, 8), (4, 4)])
def test_zf_decoder_nulling_and_norms(K, N):
    g = RngHandle(13, K * 100 + N).generator()
    H = generate_batch(1, N, K, RAYLEIGH, g)[0]
    W = zf_decoder(H)
    assert np.allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-10)
    G = W @ H
    diag = np.abs(np.diag(G))
    off = np.abs(G - np.diag(np.diag(G)))
    assert np.all(np.diag(G).real > 0)
    assert off.max() < 1e-8 * diag.min()


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


def test_residual_si_gain_selector_vectors():
    N, M = 4, 5
    H = np.zeros((N, M), dtype=complex)
    z = 1.5 - 2.0j
    H[0, 0] = z
    w = np.eye(N)[0]
    V = np.eye(M)[:, :1]
    assert residual_si_gain(w, H, V) == pytest.approx(abs(z) ** 2)


def test_residual_si_gain_scalar_case():
    assert residual_si_gain(np.array([1.0]), np.array([[2.0 + 0j]]), np.array([[1.0]])) == pytest.approx(4.0)


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


def test_dimension_errors():
    with pytest.raises(InvalidParameterError):
        zf_precoder(np.ones((4, 2)))  # K > M
    with pytest.raises(InvalidParameterError):
        zf_decoder(np.ones((2, 4)))  # K > N
    with pytest.raises(InvalidParameterError):
        residual_si_gain(np.ones(3), np.ones((4, 2)), np.ones((2, 1)))


def test_singular_channel_rejected():
    H = np.ones((2, 4), dtype=complex)  # identical rows: rank 1
    with pytest.raises(SingularChannelError):
        zf_precoder(H)
    with pytest.raises(SingularChannelError):
        zf_decoder(H.T)



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
    for h in H[:20]:
        with pytest.raises(SingularChannelError):
            zf_precoder(h)
        with pytest.raises(SingularChannelError):
            zf_decoder(h.T)


@pytest.mark.parametrize("K,M", [(2, 4), (3, 16), (8, 64)])
def test_full_rank_draws_not_flagged(K, M):
    g = RngHandle(14, K * 100 + M).generator()
    H = generate_batch(5000, K, M, RAYLEIGH, g)
    assert not zf_precoder_batch(H)[1].any()
    assert not zf_decoder_batch(H.transpose(0, 2, 1))[1].any()


def test_single_matrix_routines_match_batch():
    g = RngHandle(15, 0).generator()
    H = generate_batch(1, 3, 8, RAYLEIGH, g)
    assert np.array_equal(zf_precoder(H[0]), zf_precoder_batch(H)[0][0])
    Hu = H.transpose(0, 2, 1)
    assert np.array_equal(zf_decoder(Hu[0]), zf_decoder_batch(Hu)[0][0])
