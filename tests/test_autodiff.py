import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.errors import ContractError, DimensionError, InputTooShortError
from wavelearn.gradcheck import all_cases, check_gradients


def test_conv1d_dilated_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]))
    w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
    out = ad.conv1d(x, w, stride=1, dilation=2)
    assert_allclose(out.data, [[[-4.0]]])


def test_conv1d_identity_kernel():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = Tensor(np.array([[[1.0]]]))
    assert_allclose(ad.conv1d(x, w).data, [[[1.0, 2.0, 3.0]]])


def test_conv1d_strided_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    assert_allclose(ad.conv1d(x, w, stride=2).data, [[[3.0, 7.0]]])



@pytest.mark.parametrize("axis", [0, 1, -1])
def test_stack_backward_returns_views_of_its_gradient(axis):
    rng = np.random.default_rng(9)
    parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
    with Tape() as tape:
        out = ad.stack(parts, axis=axis)
        g = rng.normal(size=out.data.shape)
        grads = tape.backward_fns[out.node_id](g)
    for i, grad in enumerate(grads):
        assert np.shares_memory(grad, g)
        assert np.array_equal(grad, np.take(g, i, axis=axis))

def _naive_conv(x, w, b, stride, dilation, padding, g):
    """Output and the x, w, b gradients of sum(out * g), one term at a time."""
    batch, chans, width = x.shape
    k_out, _, taps = w.shape
    pad = 0 if padding == "circular" else padding
    if padding == "circular":
        out_w = -(-width // stride)
    else:
        out_w = (width + 2 * pad - dilation * (taps - 1) - 1) // stride + 1
    out = np.zeros((batch, k_out, out_w))
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    gb = np.zeros_like(b)
    for n in range(batch):
        for k in range(k_out):
            for q in range(out_w):
                out[n, k, q] = b[k]
                gb[k] += g[n, k, q]
                for c in range(chans):
                    for s in range(taps):
                        pos = q * stride + dilation * s - pad
                        if padding == "circular":
                            pos %= width
                        elif not 0 <= pos < width:
                            continue  # a padding zero
                        out[n, k, q] += x[n, c, pos] * w[k, c, s]
                        gx[n, c, pos] += g[n, k, q] * w[k, c, s]
                        gw[k, c, s] += g[n, k, q] * x[n, c, pos]
    return out, gx, gw, gb


# (batch, chans, width, k_out, taps, stride, dilation, padding) at widths >= 64
_CONV_GEOMETRIES = {
    # the model's band conv blocks and its wavelet level's (h, g) bank
    "block-stride2-dilation2": (1, 16, 67, 16, 3, 2, 2, 2),
    "block-dilation4": (1, 16, 64, 16, 3, 1, 4, 4),
    "wavelet-level": (1, 1, 65, 2, 20, 2, 1, "circular"),
    # taps start at 0, 2, 4, 6: phases 0, 2, 1, 0 of stride 3
    "stride3-dilation2": (2, 3, 70, 2, 4, 3, 2, 1),
    # one tap, no padding: no padded copy, and the im2col matrix views x
    "one-tap": (2, 3, 64, 4, 1, 1, 1, 0),
}


@pytest.mark.parametrize("seed", [*range(32), *_CONV_GEOMETRIES], ids=str)
def test_conv1d_matches_naive_loop(seed):
    r = np.random.default_rng(seed if isinstance(seed, int) else 99)
    if seed in _CONV_GEOMETRIES:
        batch, chans, width, k_out, taps, stride, dilation, padding = _CONV_GEOMETRIES[seed]
    elif seed < 24:
        batch, chans, width = r.integers(1, 4), r.integers(1, 4), r.integers(4, 9)
        k_out, taps = r.integers(1, 4), r.integers(1, 4)
        stride = int(r.integers(1, 4))
        dilation = int(r.integers(1, 4))
        padding = [0, 1, 2, 4, "circular"][seed % 5]
        span = dilation * (taps - 1) + 1
        pad_w = width if padding == "circular" else width + 2 * padding
        width = max(width, width + span - pad_w)
    else:
        # the wavelet front end's shape: an (h, g) bank of even length at
        # stride 2, circular, here on odd widths and batches of 2 or 3
        batch, chans, k_out = r.integers(2, 4), 1, 2
        taps = 2 * r.integers(1, 4)
        width = taps + 1 + 2 * r.integers(0, 4)
        stride, dilation, padding = 2, 1, "circular"
    x = r.normal(size=(batch, chans, int(width)))
    w = r.normal(size=(int(k_out), int(chans), int(taps)))
    b = r.normal(size=(int(k_out),))
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    with Tape():
        out = ad.conv1d(*leaves, stride=stride, dilation=dilation, padding=padding)
        g = r.normal(size=out.shape)
        backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    assert np.array_equal(leaves[0].data, x)
    expected = _naive_conv(x, w, b, stride, dilation, padding, g)
    for got, want in zip([out.data] + [t.grad for t in leaves], expected):
        assert_allclose(got, want, atol=1e-12)


def test_conv1d_leaves_its_inputs_intact_and_returns_a_contiguous_output():
    r = np.random.default_rng(5)
    base = r.normal(size=(3, 9, 2))
    w = r.normal(size=(4, 2, 3))
    g = r.normal(size=(3, 4, 9))
    for padding in (0, 1, "circular"):
        x = base.transpose(0, 2, 1)  # a strided view, not a contiguous array
        leaves = [Tensor(x, requires_grad=True), Tensor(w.copy(), requires_grad=True)]
        b = Tensor(np.zeros(4))
        with Tape():
            out = ad.conv1d(*leaves, b, padding=padding)
            probe = Tensor(g[:, :, : out.shape[2]].copy())
            backward(ad.reduce_sum(ad.mul(out, probe)))
        assert np.array_equal(leaves[0].data, base.transpose(0, 2, 1))
        assert np.array_equal(leaves[1].data, w)
        assert out.data.flags.c_contiguous
        expected = _naive_conv(x, w, b.data, 1, 1, padding, probe.data)
        for got, want in zip([out.data] + [t.grad for t in leaves], expected):
            assert_allclose(got, want, atol=1e-12)


def test_conv1d_shape_errors():
    x = Tensor(np.zeros((1, 2, 5)))
    w = Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(DimensionError):
        ad.conv1d(x, w)
    with pytest.raises(InputTooShortError):
        ad.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))


def test_pointwise_examples():
    assert float(ad.sigmoid(Tensor(0.0)).data) == 0.5
    assert float(ad.tanh(Tensor(0.0)).data) == 0.0
    assert float(ad.leaky_relu(Tensor(-1.0), 0.01).data) == pytest.approx(-0.01)


def test_branchless_pointwise_ops_match_their_per_sign_forms():
    x = np.array([-np.inf, -800.0, -30.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 2.0, 40.0,
                  800.0, np.inf, np.nan])
    g = np.linspace(-2.0, 2.0, x.size)
    pos = x >= 0
    logistic = np.empty_like(x)
    logistic[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    logistic[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    factor = np.where(pos, 1.0, 0.01)
    cases = [
        (ad.sigmoid, logistic, g * logistic * (1.0 - logistic)),
        (ad.softplus, np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), g * logistic),
        (lambda t: ad.leaky_relu(t, 0.01), x * factor, g * factor),
    ]
    for op, want_out, want_grad in cases:
        leaf = Tensor(x.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"), Tape():
            out = op(leaf)
            backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        for got, want in ((out.data, want_out), (leaf.grad, want_grad)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_matmul_examples():
    eye = Tensor(np.eye(2))
    v = Tensor(np.array([[3.0], [4.0]]))
    assert_allclose(ad.matmul(eye, v).data, [[3.0], [4.0]])
    a = Tensor(np.array([[1.0, 2.0]]))
    assert_allclose(ad.matmul(a, v).data, [[11.0]])
    r = np.random.default_rng(3)
    x, y = r.normal(size=(3, 4)), r.normal(size=(4, 2))
    naive = np.array([[sum(x[i, k] * y[k, j] for k in range(4)) for j in range(2)] for i in range(3)])
    assert_allclose(ad.matmul(Tensor(x), Tensor(y)).data, naive, atol=1e-12)
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_reduce_examples():
    assert float(ad.reduce_sum(Tensor([1.0, 2.0, 3.0])).data) == 6.0
    assert float(ad.reduce_mean(Tensor([2.0, 4.0])).data) == 3.0
    out = ad.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1)
    assert_allclose(out.data, [3.0, 7.0])
    with pytest.raises(DimensionError):
        ad.reduce_sum(Tensor([1.0]), axis=3)


def test_softmax_family():
    assert_allclose(ad.softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])
    assert_allclose(ad.log_softmax(Tensor([0.0, 0.0]), axis=0).data, [-np.log(2)] * 2)
    big = ad.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.all(np.isfinite(big.data))
    assert_allclose(big.data, [0.5, 0.5])
    r = np.random.default_rng(0)
    x = Tensor(r.normal(size=(4, 5)) * 3)
    assert_allclose(ad.softmax(x, axis=1).data.sum(axis=1), np.ones(4), atol=1e-9)
    assert_allclose(
        np.exp(ad.log_softmax(x, axis=1).data), ad.softmax(x, axis=1).data, atol=1e-12
    )


def test_backward_examples():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape():
        backward(ad.reduce_sum(x))
    assert_allclose(x.grad, np.ones(3))

    y = Tensor(np.array([3.0]), requires_grad=True)
    with Tape():
        backward(ad.reduce_sum(ad.mul(y, y)))
    assert_allclose(y.grad, [6.0])


def test_backward_accumulates_without_zero_grad():
    x = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(2):
        with Tape():
            backward(ad.reduce_sum(ad.mul(x, x)))
    assert_allclose(x.grad, [8.0])
    x.grad = None  # clearing the leaf starts the next accumulation afresh
    with Tape():
        backward(ad.reduce_sum(ad.mul(x, x)))
    assert_allclose(x.grad, [4.0])


def test_backward_contract_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(x)
    with Tape():
        out = ad.mul(x, x)
        with pytest.raises(ContractError):
            backward(out)
    with Tape():
        loss = ad.reduce_sum(out)
    with pytest.raises(ContractError):
        backward(loss)


def test_leaving_the_tape_frees_it_without_gc():
    x = Tensor(np.ones(3), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            y = ad.mul(x, x)
            out = ad.mul(y, y)  # its closure holds y, which holds the tape
        ref = weakref.ref(tape)
        del tape, y, out
        assert ref() is None
    finally:
        gc.enable()


def test_a_tape_is_back_propagated_once():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss)
        assert tape.backward_fns == [None] * len(tape.kinds)  # released as they ran
        with pytest.raises(ContractError):
            backward(loss)
    assert_allclose(x.grad, [4.0])  # not added a second time


def test_no_tape_means_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    out = ad.mul(x, x)
    assert out.node_id is None and not out.requires_grad


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.data(),
)
def test_broadcast_pointwise_matches_scalar_loop(shape, data):
    # collapse a random subset of axes to 1 to build a broadcastable partner
    mask = data.draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    other_shape = [1 if m else s for m, s in zip(mask, shape)]
    r = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = r.normal(size=tuple(shape))
    b = r.normal(size=tuple(other_shape))
    out_add = ad.add(Tensor(a), Tensor(b)).data
    out_mul = ad.mul(Tensor(a), Tensor(b)).data
    expected_add = np.empty(np.broadcast_shapes(a.shape, b.shape))
    expected_mul = np.empty_like(expected_add)
    for idx in np.ndindex(*expected_add.shape):
        ai = a[tuple(i % s for i, s in zip(idx, a.shape))]
        bi = b[tuple(i % s for i, s in zip(idx, b.shape))]
        expected_add[idx] = ai + bi
        expected_mul[idx] = ai * bi
    assert_allclose(out_add, expected_add, atol=1e-12)
    assert_allclose(out_mul, expected_mul, atol=1e-12)


def test_forward_determinism():
    r = np.random.default_rng(11)
    x = r.normal(size=(2, 3, 16))
    w = r.normal(size=(4, 3, 3))

    def run():
        with Tape():
            out = ad.conv1d(Tensor(x), Tensor(w, requires_grad=True))
            return ad.softmax(out, axis=1).data.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


CASES = all_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradients_match_finite_differences(name):
    build, arrays = CASES[name]
    assert check_gradients(build, arrays) < 1e-4


def _identity_with_gradient(fill):
    """A scalar build whose recorded backward returns ``fill`` everywhere."""
    def build(t):
        out = ad.record("fake", t[0].data * 1.0, (t[0],), lambda g: (np.full_like(g, fill),))
        return ad.reduce_sum(out)
    return build


@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_gradient_fails_the_check(fill):
    assert check_gradients(_identity_with_gradient(1.0), [np.ones((2, 3))]) < 1e-8
    assert check_gradients(_identity_with_gradient(fill), [np.ones((2, 3))]) == np.inf
