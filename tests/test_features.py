import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
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
    # the stride-4 block gives ceil(W / 4), the stride-1 blocks keep it
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
        assert seq.data.shape[2] == math.ceil(width / 4)


# (dilation, stride, padding) of the stack before block 1 dropped the odd
# columns that block 2 never reads
_FULL_BLOCKS = ((1, 2, 1), (2, 2, 2), (4, 1, 4))


def _taped_band_features(band, blocks, attention, probes):
    """Outputs, then the band's and every parameter's gradient, of one taped
    band_features under a fixed linear probe of both outputs."""
    leaves = [Tensor(band, requires_grad=True)]
    leaves += [ad.parameter(t.data) for p in blocks for t in p.tensors()]
    leaves.append(ad.parameter(attention.score_weight.data))
    blocks = [ConvBlockParams(w, b, p.stride, p.dilation, p.padding)
              for p, w, b in zip(blocks, leaves[1::2], leaves[2::2])]
    with Tape():
        weighted, summary = band_features(leaves[0], blocks, SpatialAttentionParams(leaves[-1]))
        backward(ad.add(ad.reduce_sum(ad.mul(weighted, Tensor(probes[0]))),
                        ad.reduce_sum(ad.mul(summary, Tensor(probes[1])))))
    return [weighted.data, summary.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("width", [*range(1, 71), 6042])
def test_band_features_equal_the_full_stride_2_stack(width):
    rng = np.random.default_rng(width)
    pipe = _pipeline(channels=5, rng=rng)
    full = [ConvBlockParams(p.weight, p.bias, stride=s, dilation=d, padding=pad)
            for p, (d, s, pad) in zip(pipe.blocks, _FULL_BLOCKS)]
    band = rng.normal(size=(2, 1, width))
    probes = (rng.normal(size=(2, 5, math.ceil(width / 4))), rng.normal(size=(2, 5)))
    ours = _taped_band_features(band, pipe.blocks, pipe.attention, probes)
    theirs = _taped_band_features(band, full, pipe.attention, probes)
    for a, b in zip(ours, theirs):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_every_block_output_position_gets_a_gradient():
    # no block computes a column that the rest of the stack never reads
    rng = np.random.default_rng(7)
    pipe = _pipeline(channels=4, rng=rng)
    taps = []
    with Tape():
        x = Tensor(rng.normal(size=(1, 1, 67)))
        for p in pipe.blocks:
            x = conv_block(x, p)
            taps.append(Tensor(np.zeros(x.shape), requires_grad=True))
            x = ad.add(x, taps[-1])  # a zero leaf whose gradient is the output's
        weighted = spatial_attention(x, pipe.attention).weighted
        backward(ad.reduce_sum(ad.mul(weighted, Tensor(rng.normal(size=weighted.shape)))))
    for tap in taps:
        assert np.all(tap.grad != 0.0)
