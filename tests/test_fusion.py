import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tensor
from wavelearn.errors import DimensionError, InputTooShortError
from wavelearn.fusion import (
    ChannelWeights,
    HeadParams,
    channel_weighting,
    classify,
    fuse_bands,
)


def test_fuse_bands_shape_law():
    vectors = [Tensor(np.random.default_rng(i).normal(size=(2, 64))) for i in range(9)]
    fused = fuse_bands(vectors)
    assert fused.data.shape == (2, 9, 64)


def test_fuse_bands_single_band():
    fused = fuse_bands([Tensor(np.ones((3, 5)))])
    assert fused.data.shape == (3, 1, 5)


def test_fuse_bands_positional():
    a, b = Tensor(np.full((1, 2), 1.0)), Tensor(np.full((1, 2), 2.0))
    fused = fuse_bands([a, b])
    swapped = fuse_bands([b, a])
    assert_allclose(fused.data[:, 0], swapped.data[:, 1])
    assert_allclose(fused.data[:, 1], swapped.data[:, 0])


def test_fuse_bands_mismatch():
    with pytest.raises(DimensionError):
        fuse_bands([Tensor(np.ones((1, 3))), Tensor(np.ones((1, 4)))])


def test_channel_weighting_identity_and_zero():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 4, 5)))
    ones = channel_weighting(x, ChannelWeights(w=Tensor(np.ones(4))))
    assert_allclose(ones.data, x.data)
    w = np.ones(4)
    w[2] = 0.0
    zeroed = channel_weighting(x, ChannelWeights(w=Tensor(w)))
    assert_allclose(zeroed.data[:, 2], np.zeros((2, 5)))
    doubled = channel_weighting(x, ChannelWeights(w=Tensor(np.array([2.0, 1, 1, 1]))))
    assert_allclose(doubled.data[:, 0], 2 * x.data[:, 0])
    assert_allclose(doubled.data[:, 1:], x.data[:, 1:])


def test_channel_weighting_extent_mismatch():
    with pytest.raises(DimensionError):
        channel_weighting(Tensor(np.ones((1, 3, 2))), ChannelWeights(w=Tensor(np.ones(4))))


def _head(bands, classes, rng=None):
    return HeadParams.init(bands, classes, rng or np.random.default_rng(1))


def test_classify_log_probabilities_normalize():
    rng = np.random.default_rng(2)
    head = _head(9, 4, rng)
    out = classify(Tensor(rng.normal(size=(3, 9, 16))), head)
    assert out.data.shape == (3, 4)
    assert_allclose(np.exp(out.data).sum(axis=1), np.ones(3), atol=1e-9)


def test_classify_uniform_when_logits_equal():
    # a zero kernel collapses the head to its bias; equal biases give -ln(classes)
    head = _head(2, 4)
    head.weight.data = np.zeros_like(head.weight.data)
    head.bias.data = np.full(4, 0.3)
    out = classify(Tensor(np.random.default_rng(3).normal(size=(2, 2, 8))), head)
    assert_allclose(out.data, np.full((2, 4), -np.log(4.0)), atol=1e-12)


def test_gap_of_constant_map():
    x = Tensor(np.full((1, 2, 6), 3.5))
    pooled = ad.reduce_mean(x, axis=2)
    assert_allclose(pooled.data, np.full((1, 2), 3.5))


def test_classify_argmax_invariant_to_shared_bias_shift():
    rng = np.random.default_rng(4)
    head = _head(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3, 12)))
    base = classify(x, head)
    # a conv-bias shift shared by every class shifts every logit alike
    head.bias.data = head.bias.data + 2.5
    shifted = classify(x, head)
    assert np.array_equal(np.argmax(base.data, 1), np.argmax(shifted.data, 1))
    assert_allclose(base.data, shifted.data, atol=1e-9)
    # and a shared logit shift cancels inside the log-softmax
    logits = rng.normal(size=(2, 4))
    a = ad.log_softmax(Tensor(logits), axis=1)
    b = ad.log_softmax(Tensor(logits + 2.5), axis=1)
    assert_allclose(a.data, b.data, atol=1e-12)


def test_classify_too_narrow():
    head = _head(2, 3)
    with pytest.raises(InputTooShortError):
        classify(Tensor(np.ones((1, 2, 2))), head)
