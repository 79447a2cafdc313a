import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.errors import DimensionError, InputTooShortError
from wavelearn.model import ModelConfig, Network, named_parameters
from wavelearn.recurrent import (
    CHUNK,
    BiGRULayer,
    BiGRUStack,
    GRUCellParams,
    TemporalAttentionParams,
    bigru_forward,
    gru_scan,
    temporal_attention,
)
from wavelearn.wavelet import FrontEndConfig

from gradcheck import check_gradients
from memory import traced
from reference import gru_cell_step, matmul, taped_temporal_attention


def _cell(input_size, hidden, fill=0.0):
    arrays = [np.full(s, fill) for s in GRUCellParams.shapes(input_size, hidden)]
    return GRUCellParams(*[Tensor(a) for a in arrays])


def _data(params):
    return [t.data for t in named_parameters(params).values()]


def test_cell_all_zero():
    p = _cell(2, 3)
    out = gru_cell_step(Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 3))), p)
    assert_allclose(out.data, np.zeros((1, 3)))


def test_cell_saturated_update_gate_keeps_state():
    p = _cell(2, 3)
    p.b_ih.data[3:6] = 30.0  # update-gate rows: z ~= 1
    h_prev = np.random.default_rng(0).normal(size=(1, 3))
    out = gru_cell_step(Tensor(np.ones((1, 2))), Tensor(h_prev), p)
    assert_allclose(out.data, h_prev, atol=1e-10)


def test_cell_scalar_reference_value():
    p = _cell(1, 1)
    p.w_ih.data = np.ones((3, 1))
    out = gru_cell_step(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))), p)
    sig = 1.0 / (1.0 + np.exp(-1.0))
    expected = (1.0 - sig) * np.tanh(1.0)
    assert_allclose(out.data, [[expected]], atol=1e-12)
    assert abs(out.data[0, 0] - 0.2048) < 5e-4


def test_cell_dimension_errors():
    p = _cell(2, 3)
    with pytest.raises(DimensionError):
        gru_cell_step(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))), p)
    with pytest.raises(DimensionError):
        gru_cell_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 4))), p)
    with pytest.raises(DimensionError):
        gru_scan(Tensor(np.zeros((1, 5, 4))), p)


def _repeated_cell_steps(x, cell, reverse):
    batch, t_len, _ = x.data.shape
    h = Tensor(np.zeros((batch, cell.w_hh.data.shape[1])))
    states = [None] * t_len
    for t in reversed(range(t_len)) if reverse else range(t_len):
        h = gru_cell_step(x[:, t], h, cell)
        states[t] = h
    return ad.stack(states, axis=1)


def _scan_and_grads(run, arrays, probe, reverse):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = run(leaves[0], GRUCellParams(*leaves[1:]), reverse)
        backward(ad.reduce_sum(ad.mul(out, Tensor(probe))))
    return out.data, [leaf.grad for leaf in leaves]


# (B, T, D, H): T=1, B=1, B=3, D != H, a 200-step gradient chain, and the
# model's widths: the first layer's 32-wide input and a deeper layer's
SCAN_SHAPES = [(2, 5, 3, 4), (1, 1, 3, 2), (3, 1, 2, 2), (1, 7, 4, 4), (3, 6, 5, 2),
               (2, 200, 3, 5), (1, 64, 32, 16), (4, 33, 16, 16)]


@pytest.mark.parametrize("batch, t_len, d_in, hidden", SCAN_SHAPES,
                         ids=["B{}-T{}-D{}-H{}".format(*s) for s in SCAN_SHAPES])
def test_scan_matches_repeated_cell_steps(batch, t_len, d_in, hidden):
    rng = np.random.default_rng(1)
    cell = GRUCellParams.init(d_in, hidden, rng)
    arrays = [rng.normal(size=(batch, t_len, d_in))] + _data(cell)
    probe = rng.normal(size=(batch, t_len, hidden))
    for reverse in (False, True):
        scan_out, scan_grads = _scan_and_grads(gru_scan, arrays, probe, reverse)
        step_out, step_grads = _scan_and_grads(_repeated_cell_steps, arrays, probe, reverse)
        assert_allclose(scan_out, step_out, rtol=0, atol=1e-10)
        # gradients of x, w_ih, w_hh, b_ih and b_hh
        assert all(g is not None for g in scan_grads + step_grads)
        for a, b in zip(scan_grads, step_grads):
            assert_allclose(a, b, rtol=0, atol=1e-10)


# the scan runs CHUNK steps at a time through one set of buffers, and its
# backward walks the chunks last first, carrying the state gradient across each
# boundary: one step, one short of a chunk, one chunk, one and two past it, two
# chunks and one step, and three chunks; each with one input, and with two
# input parts under a dropout mask
CHUNK_LENGTHS = [1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1, 2 * CHUNK + 3]
CHUNK_CASES = [pytest.param(batch, t_len, masked, id=f"{batch}-{t_len}" + "-masked" * masked)
               for masked in (False, True) for batch in (1, 3) for t_len in CHUNK_LENGTHS]


@pytest.mark.parametrize("batch, t_len, masked", CHUNK_CASES)
def test_scan_matches_cell_steps_across_chunk_boundaries(batch, t_len, masked):
    rng = np.random.default_rng(t_len)
    cell = GRUCellParams.init(3, 4, rng)
    arrays = [rng.normal(size=(batch, t_len, 3))] + _data(cell)
    probe = rng.normal(size=(batch, t_len, 4))
    scan, steps = gru_scan, _repeated_cell_steps
    if masked:  # parts of widths 1 and 2; the steps read x * keep * scale
        keep, scale = rng.random((batch, t_len, 3)) >= 0.3, 1.0 / 0.7

        def scan(x, cell, reverse):
            return gru_scan([x[:, :, :1], x[:, :, 1:]], cell, reverse, keep, scale)

        def steps(x, cell, reverse):
            return _repeated_cell_steps(ad.mul(x, Tensor(keep * scale)), cell, reverse)

    for reverse in (False, True):
        scanned = _scan_and_grads(scan, arrays, probe, reverse)
        stepped = _scan_and_grads(steps, arrays, probe, reverse)
        # the output, then the gradients of x, w_ih, w_hh, b_ih and b_hh
        for a, b in zip([scanned[0]] + scanned[1], [stepped[0]] + stepped[1]):
            assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_buffers_do_not_grow_with_sequence_length(reverse):
    # beyond the states a forward keeps and the input gradient a backward
    # returns, a scan holds only buffers of CHUNK steps: its peaks above those
    # two stay put from T = 1,511 to T = 6,044
    d_in, hidden = 32, 16
    rng = np.random.default_rng(18)
    cell = GRUCellParams.init(d_in, hidden, rng)
    forward_extra, backward_extra = [], []
    for t_len in (1511, 6044):
        x = Tensor(rng.normal(size=(1, t_len, d_in)), requires_grad=True)
        g = rng.normal(size=(1, t_len, hidden))
        with traced() as usage:
            gru_scan(x, cell, reverse)  # no tape: a forward-only scan
            forward_extra.append(usage()[1] - 8 * (t_len + 1) * hidden)
        with Tape() as tape:
            scan_backward = tape.backward_fns[gru_scan(x, cell, reverse).node_id]
            with traced() as usage:
                dx = scan_backward(g)[0]
                backward_extra.append(usage()[1] - dx.nbytes)
    for short, long in (forward_extra, backward_extra):
        assert abs(long - short) <= 0.1 * short


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_saturated_gates_stay_finite(reverse):
    rng = np.random.default_rng(14)
    cell = GRUCellParams.init(5, 4, rng)
    arrays = [rng.normal(size=(2, 30, 5)) * 1e3] + _data(cell)
    probe = rng.normal(size=(2, 30, 4))
    scan_out, scan_grads = _scan_and_grads(gru_scan, arrays, probe, reverse)
    step_out, step_grads = _scan_and_grads(_repeated_cell_steps, arrays, probe, reverse)
    # the r and z pre-activations a of every step: the scan's exp(-a) overflows
    # to inf where -a > 709, silently, as a RuntimeWarning fails the suite
    x, w_ih, w_hh, b_ih, b_hh = arrays
    h_prev = np.zeros_like(step_out)
    if reverse:
        h_prev[:, :-1] = step_out[:, 1:]
    else:
        h_prev[:, 1:] = step_out[:, :-1]
    rz = slice(0, 8)
    a = x @ w_ih[rz].T + b_ih[rz] + h_prev @ w_hh[rz].T + b_hh[rz]
    assert (-a).max() > 709
    for a, b in zip([scan_out] + scan_grads, [step_out] + step_grads):
        assert np.all(np.isfinite(a))
        assert_allclose(a, b, rtol=0, atol=1e-10)


def test_scan_backward_never_holds_a_jacobian():
    batch, t_len, d_in, hidden = 1, 1000, 4, 64
    rng = np.random.default_rng(15)
    cell = GRUCellParams.init(d_in, hidden, rng)
    x = Tensor(rng.normal(size=(batch, t_len, d_in)), requires_grad=True)
    probe = Tensor(rng.normal(size=(batch, t_len, hidden)))
    with Tape():
        loss = ad.reduce_sum(ad.mul(gru_scan(x, cell), probe))
        with traced() as usage:
            backward(loss)
            peak = usage()[1]
    # one float64 (T, B, H, H) array of every step's state Jacobian
    assert peak < 8 * t_len * batch * hidden * hidden
    assert x.grad.shape == x.data.shape


# in units of one (T, B, H) float64 array the backward reads 6.71 in either
# direction (15.4 forward and 17.4 reverse when its gate, Jacobian and input
# buffers held all T steps); each bound is 1.05 x its reading
@pytest.mark.parametrize("reverse, bound", [pytest.param(False, 7.05, id="forward"),
                                            pytest.param(True, 7.05, id="reverse")])
def test_scan_backward_peak_stays_within_its_measured_size(reverse, bound):
    batch, t_len, d_in, hidden = 1, 1511, 32, 16  # the default model's longest band
    rng = np.random.default_rng(16)
    cell = GRUCellParams.init(d_in, hidden, rng)
    x = Tensor(rng.normal(size=(batch, t_len, d_in)), requires_grad=True)
    probe = Tensor(rng.normal(size=(batch, t_len, hidden)))
    with Tape():
        loss = ad.reduce_sum(ad.mul(gru_scan(x, cell, reverse), probe))
        with traced() as usage:
            backward(loss)
            peak = usage()[1]
    assert peak <= bound * 8 * t_len * batch * hidden


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_backward_writes_into_none_of_its_inputs(reverse):
    rng = np.random.default_rng(17)
    cell = GRUCellParams.init(5, 4, rng)
    x = Tensor(rng.normal(size=(3, 40, 5)), requires_grad=True)
    with Tape() as tape:
        out = gru_scan(x, cell, reverse)
        scan_backward = tape.backward_fns[out.node_id]
        g = rng.normal(size=out.data.shape)
        g_before, out_before = g.copy(), out.data.copy()
        first = [a.copy() for a in scan_backward(g)]
        second = scan_backward(g)
    # the output is a view of the stored states, so they are intact too
    assert np.array_equal(out.data, out_before)
    assert np.array_equal(g, g_before)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_scan_leaves_its_inputs_and_shared_cells_intact():
    rng = np.random.default_rng(11)
    cell = GRUCellParams.init(3, 4, rng)
    arrays = [rng.normal(size=(2, 6, 3))] + _data(cell)
    before = [a.copy() for a in arrays]
    probe = rng.normal(size=(2, 6, 4))
    separate = [_scan_and_grads(gru_scan, arrays, probe, reverse)[1] for reverse in (False, True)]
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    shared = GRUCellParams(*leaves[1:])
    with Tape():
        both = ad.add(gru_scan(leaves[0], shared), gru_scan(leaves[0], shared, reverse=True))
        backward(ad.reduce_sum(ad.mul(both, Tensor(probe))))
    for leaf, forward_grad, reverse_grad in zip(leaves, *separate):
        assert_allclose(leaf.grad, forward_grad + reverse_grad, rtol=1e-13, atol=1e-15)
    for leaf, a in zip(leaves, before):
        assert np.array_equal(leaf.data, a)


def test_reverse_scan_keeps_only_its_states():
    batch, t_len, d_in, hidden = 2, 500, 8, 4
    rng = np.random.default_rng(13)
    cell = GRUCellParams.init(d_in, hidden, rng)
    x = Tensor(rng.normal(size=(batch, t_len, d_in)))
    with Tape(), traced() as usage:
        out = gru_scan(x, cell, reverse=True)
        kept = usage()[0]
    # the (T + 1, B, H) float64 states; the output is a view of them
    states = 8 * (t_len + 1) * batch * hidden
    assert kept <= 1.25 * states
    assert out.data.shape == (batch, t_len, hidden)


def test_init_stacks_the_per_gate_draws():
    # the same seed drew w_ir, w_iz, w_in, w_hr, ..., b_hn one gate at a time
    rng = np.random.default_rng(12)
    cell = GRUCellParams.init(3, 4, rng)
    k = 1.0 / np.sqrt(4)
    rng = np.random.default_rng(12)
    per_gate = [rng.uniform(-k, k, size=s) for s in [(4, 3)] * 3 + [(4, 4)] * 3 + [(4,)] * 6]
    fused = [np.concatenate(per_gate[i : i + 3]) for i in range(0, 12, 3)]
    for tensor, expected in zip(named_parameters(cell).values(), fused):
        assert np.array_equal(tensor.data, expected)


def test_scan_convexity_bound():
    # h_t is a convex mix of tanh output and previous state: |h| < 1 from zero init
    rng = np.random.default_rng(2)
    cell = GRUCellParams.init(2, 3, rng)
    stack = BiGRUStack(layers=[BiGRULayer(fwd=cell, bwd=GRUCellParams.init(2, 3, rng))],
                       dropout_p=0.0)
    for out in bigru_forward(Tensor(rng.normal(size=(1, 50, 2)) * 5), stack):
        assert np.all(np.abs(out.data) < 1.0)


def test_bigru_single_step_concatenates_directions():
    rng = np.random.default_rng(3)
    stack = BiGRUStack.init(1, 2, 3, 0.0, rng)
    x = rng.normal(size=(1, 1, 2))
    out_fwd, out_bwd = bigru_forward(Tensor(x), stack)
    fwd = gru_cell_step(Tensor(x[:, 0]), Tensor(np.zeros((1, 3))), stack.layers[0].fwd)
    bwd = gru_cell_step(Tensor(x[:, 0]), Tensor(np.zeros((1, 3))), stack.layers[0].bwd)
    assert_allclose(out_fwd.data[:, 0], fwd.data, atol=1e-12)
    assert_allclose(out_bwd.data[:, 0], bwd.data, atol=1e-12)


def test_bigru_time_reversal_swaps_directions_with_tied_cells():
    rng = np.random.default_rng(4)
    cell = GRUCellParams.init(2, 3, rng)
    stack = BiGRUStack(layers=[BiGRULayer(fwd=cell, bwd=cell)], dropout_p=0.0)
    x = rng.normal(size=(1, 2, 2))
    out = bigru_forward(Tensor(x), stack)
    rev = bigru_forward(Tensor(x[:, ::-1].copy()), stack)
    assert_allclose(out[0].data, rev[1].data[:, ::-1], atol=1e-12)
    assert_allclose(out[1].data, rev[0].data[:, ::-1], atol=1e-12)


def test_bigru_dropout_determinism_and_zero_p():
    rng = np.random.default_rng(5)
    stack = BiGRUStack.init(2, 2, 3, 0.4, rng)
    x = Tensor(rng.normal(size=(1, 6, 2)))

    def states(stack, rng=None):  # both directions' states side by side
        return np.concatenate([t.data for t in bigru_forward(x, stack, rng)], axis=2)

    a = states(stack, np.random.default_rng(7))
    b = states(stack, np.random.default_rng(7))
    c = states(stack, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

    plain = BiGRUStack(layers=stack.layers, dropout_p=0.0)
    d = states(plain, np.random.default_rng(7))
    e = states(plain, np.random.default_rng(123))
    assert np.array_equal(d, e)
    assert np.array_equal(states(stack), d)  # no generator, no dropout


def test_bigru_dropout_keeps_a_mask_not_a_float64_copy_between_layers():
    batch, t_len, d_in, hidden, p = 1, 4000, 3, 8, 0.25
    rng = np.random.default_rng(19)
    stack = BiGRUStack.init(2, d_in, hidden, p, rng)
    x = Tensor(rng.normal(size=(batch, t_len, d_in)))
    with Tape():
        bigru_forward(x, stack)  # first calls allocate a few kB that stay
    kept = []
    for generator in (None, np.random.default_rng(2)):
        with Tape(), traced() as usage:
            bigru_forward(x, stack, generator)
            kept.append(usage()[0])
    # one byte per entry of the second layer's input, give or take a few
    # hundred bytes of interpreter bookkeeping; a float64 copy would be 9x
    mask = batch * t_len * 2 * hidden
    assert 0.95 * mask <= kept[1] - kept[0] <= 1.1 * mask

    # the scan reads x * keep * scale and returns g * keep * scale per part
    t_len, scale = 7, 1.0 / (1.0 - p)
    parts = [Tensor(rng.normal(size=(batch, t_len, hidden)), requires_grad=True)
             for _ in range(2)]
    keep = rng.random((batch, t_len, 2 * hidden)) >= p
    masked = Tensor(np.where(keep, np.concatenate([t.data for t in parts], 2) * scale, 0.0),
                    requires_grad=True)
    probe = Tensor(rng.normal(size=(batch, t_len, hidden)))
    for reverse in (False, True):
        for t in (*parts, masked):
            t.grad = None
        with Tape():
            out = gru_scan(parts, stack.layers[1].fwd, reverse, keep=keep, scale=scale)
            backward(ad.reduce_sum(ad.mul(out, probe)))
        with Tape():
            want = gru_scan(masked, stack.layers[1].fwd, reverse)
            backward(ad.reduce_sum(ad.mul(want, probe)))
        assert np.array_equal(out.data, want.data)
        grads = np.concatenate([t.grad for t in parts], axis=2)
        assert np.array_equal(grads, np.where(keep, masked.grad * scale, 0.0))


def test_network_int_dropout_seed_seeds_one_generator_per_pass():
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), conv_channels=4,
                      gru_layers=2, gru_hidden=4, dropout=0.4)
    clip = generate_synthetic(default_synthetic_spec(levels=6, seed=1,
                                                     length_range=(1300, 1700)), 1)[0]
    net = Network(cfg, seed=3)
    by_int = net.forward(clip.samples, training=True, dropout_seed=5)
    by_rng = net.forward(clip.samples, training=True, dropout_seed=np.random.default_rng(5))
    assert np.array_equal(by_int.data, by_rng.data)


def test_bigru_empty_sequence():
    stack = BiGRUStack.init(1, 2, 3, 0.0, np.random.default_rng(0))
    with pytest.raises(InputTooShortError):
        bigru_forward(Tensor(np.zeros((1, 0, 2))), stack)


@pytest.mark.parametrize("reverse, batch, t_len", [
    pytest.param(False, 2, 4, id="False"),
    pytest.param(True, 2, 4, id="True"),
    pytest.param(False, 3, 1, id="False-B3-T1"),
    pytest.param(True, 3, 1, id="True-B3-T1"),
])
def test_scan_gradcheck(reverse, batch, t_len):
    rng = np.random.default_rng(6)
    probe = rng.normal(size=(batch, t_len, 3))

    def build(t):
        out = gru_scan(t[0], GRUCellParams(*t[1:]), reverse=reverse)
        return ad.reduce_sum(ad.mul(out, Tensor(probe)))

    arrays = [rng.normal(size=(batch, t_len, 5))]
    arrays += [rng.normal(size=s) * 0.6 for s in GRUCellParams.shapes(5, 3)]
    assert check_gradients(build, arrays) < 1e-4


ATTENTION_CASES = [pytest.param(2, 5, [6], id="one-tensor"),
                   pytest.param(2, 5, [2, 4], id="two-parts"),
                   pytest.param(2, 1, [3, 3], id="T1"),
                   pytest.param(3, 4, [3, 3], id="B3")]


@pytest.mark.parametrize("batch, t_len, widths", ATTENTION_CASES)
def test_temporal_attention_matches_the_taped_composition(batch, t_len, widths):
    rng = np.random.default_rng(20)
    arrays = [rng.normal(size=(batch, t_len, w)) for w in widths]
    arrays += _data(TemporalAttentionParams.init(sum(widths), rng))
    probe = rng.normal(size=(batch, sum(widths)))

    def run(fused):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        parts, p = leaves[: len(widths)], TemporalAttentionParams(*leaves[len(widths) :])
        with Tape() as tape:
            if fused:
                out = temporal_attention(parts[0] if len(parts) == 1 else parts, p)
                assert tape.kinds.count("temporal_attention") == 1
            else:
                out = taped_temporal_attention(ad.concat(parts, axis=2), p)
            backward(ad.reduce_sum(ad.mul(out, Tensor(probe))))
        return [out.data] + [leaf.grad for leaf in leaves]

    # the output, then the gradients of each part, fc1, fc2 and the bias
    for a, b in zip(run(True), run(False)):
        assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


def test_temporal_attention_single_step():
    rng = np.random.default_rng(7)
    p = TemporalAttentionParams.init(4, rng)
    h = rng.normal(size=(2, 1, 4))
    out = temporal_attention(Tensor(h), p)
    assert out.data.shape == (2, 4)
    assert np.all(np.abs(out.data) < 1.0)


def test_temporal_attention_weights_sum_to_one():
    rng = np.random.default_rng(8)
    p = TemporalAttentionParams.init(4, rng)
    states = Tensor(rng.normal(size=(3, 5, 4)))
    flat = ad.reshape(states, (15, 4))
    mapped = ad.reshape(matmul(flat, ad.transpose(p.fc1_weight)), (3, 5, 4))
    h_last = states[:, 4, :]
    scores = matmul(mapped, ad.reshape(h_last, (3, 4, 1)))
    weights = ad.softmax(scores, axis=1)
    assert_allclose(weights.data.sum(axis=1), np.ones((3, 1)), atol=1e-9)


def test_temporal_attention_identical_rows_give_uniform_context():
    rng = np.random.default_rng(9)
    p = TemporalAttentionParams.init(4, rng)
    row = rng.normal(size=(1, 1, 4))
    h = np.tile(row, (1, 6, 1))
    out = temporal_attention(Tensor(h), p)
    # context equals the common row; compare against the T=1 case
    single = temporal_attention(Tensor(row), p)
    assert_allclose(out.data, single.data, atol=1e-12)


def test_temporal_attention_output_in_tanh_range():
    rng = np.random.default_rng(10)
    p = TemporalAttentionParams.init(6, rng)
    out = temporal_attention(Tensor(rng.normal(size=(4, 7, 6)) * 3), p)
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)
