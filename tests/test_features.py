import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn.autodiff import Tensor
from wavelearn.features import (
    BandPipelineParams,
    ConvBlockParams,
    SpatialAttentionParams,
    band_features,
    conv_block,
    spatial_attention,
)

from gradcheck import check_gradients


def _block(weight, bias, dilation=1):
    return ConvBlockParams(weight=Tensor(weight), bias=Tensor(bias), dilation=dilation)


def test_conv_block_zero_propagation():
    p = _block(np.ones((2, 1, 3)), np.zeros(2))
    out = conv_block(Tensor(np.zeros((1, 1, 8))), p)
    assert_allclose(out.data, np.zeros_like(out.data))


def test_conv_block_negative_entries_scaled_by_slope():
    # identity 1-tap kernel: the block reduces to leaky(x)
    p = _block(np.ones((1, 1, 1)), np.zeros(1))
    x = np.array([[[-1.0, 0.0, 2.0]]])
    out = conv_block(Tensor(x), p)
    assert_allclose(out.data, [[[-0.01, 0.0, 2.0]]], atol=1e-12)


def test_conv_block_gradcheck():
    r = np.random.default_rng(0)
    probe = r.normal(size=(2, 3, 6))

    def build(t):
        p = ConvBlockParams(weight=t[1], bias=t[2], dilation=2)
        from wavelearn import autodiff as ad

        return ad.reduce_sum(ad.mul(conv_block(t[0], p), Tensor(probe)))

    arrays = [
        r.normal(size=(2, 2, 10)),
        r.normal(size=(3, 2, 3)),
        r.normal(size=(3,)),
    ]
    assert check_gradients(build, arrays) < 1e-4


def _attention(channels, rng=None):
    rng = rng or np.random.default_rng(0)
    return SpatialAttentionParams(score_weight=Tensor(rng.normal(size=(1, channels, 1))))


def test_attention_weights_are_distribution():
    rng = np.random.default_rng(1)
    result = spatial_attention(Tensor(rng.normal(size=(3, 4, 7))), _attention(4, rng))
    sums = result.weights.data.sum(axis=2)
    assert_allclose(sums, np.ones((3, 1)), atol=1e-9)
    assert np.all(result.weights.data >= 0)


def test_attention_constant_map_gives_uniform_weights_and_mean():
    x = np.tile(np.array([1.0, -2.0, 0.5])[None, :, None], (2, 1, 6))
    result = spatial_attention(Tensor(x), _attention(3))
    assert_allclose(result.weights.data, np.full((2, 1, 6), 1 / 6), atol=1e-12)
    assert_allclose(result.summary.data, x.mean(axis=2), atol=1e-12)


def test_attention_single_position():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 1))
    result = spatial_attention(Tensor(x), _attention(3, rng))
    assert_allclose(result.weights.data, np.ones((2, 1, 1)))
    assert_allclose(result.summary.data, x[:, :, 0])


@pytest.mark.parametrize("width", [1, 7])
def test_attention_equals_the_paper_form_with_width_mean_context(width):
    # the paper scores map + width-mean context; the context only shifts every
    # position's score by one constant, which the width softmax cancels
    rng = np.random.default_rng(width)
    x = rng.normal(size=(3, 5, width))
    params = _attention(5, rng)
    w = params.score_weight.data[0, :, 0]
    scores = np.einsum("c,bct->bt", w, x + x.mean(axis=2, keepdims=True))[:, None]
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights = e / e.sum(axis=2, keepdims=True)
    result = spatial_attention(Tensor(x), params)
    assert_allclose(result.weights.data, weights, rtol=0, atol=1e-12)
    assert_allclose(result.weighted.data, weights * x, rtol=0, atol=1e-12)
    assert_allclose(result.summary.data, (weights * x).sum(axis=2), rtol=0, atol=1e-12)


def _pipeline(channels=4, rng=None):
    rng = rng or np.random.default_rng(3)
    return BandPipelineParams.init(channels, rng)


def test_band_features_width_arithmetic():
    pipe = _pipeline()
    seq, summary = band_features(Tensor(np.random.default_rng(0).normal(size=(1, 1, 511))),
                                 pipe.blocks, pipe.attention)
    # two stride-2 blocks give ceil(W / 2) each, the stride-1 block keeps W
    assert seq.data.shape == (1, 4, 128)
    assert summary.data.shape == (1, 4)


def test_band_features_zero_band():
    pipe = _pipeline()
    for block in pipe.blocks:
        block.bias.data = np.zeros_like(block.bias.data)
    _, summary = band_features(Tensor(np.zeros((1, 1, 64))), pipe.blocks, pipe.attention)
    assert_allclose(summary.data, np.zeros((1, 4)))


def test_band_features_batch_independence():
    pipe = _pipeline()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 64))
    _, summary = band_features(Tensor(x), pipe.blocks, pipe.attention)
    _, swapped = band_features(Tensor(x[::-1].copy()), pipe.blocks, pipe.attention)
    assert_allclose(summary.data, swapped.data[::-1], atol=1e-12)


def test_band_features_one_sample_band_gives_a_one_wide_map():
    # the fixed geometry never runs a band short, so no config rule checks it
    pipe = _pipeline()
    seq, _ = band_features(Tensor(np.ones((1, 1, 1))), pipe.blocks, pipe.attention)
    assert seq.data.shape == (1, 4, 1)
    for width in range(2, 12):
        seq, _ = band_features(Tensor(np.ones((1, 1, width))), pipe.blocks, pipe.attention)
        assert seq.data.shape[2] == math.ceil(math.ceil(width / 2) / 2)
