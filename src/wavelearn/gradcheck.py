"""Central finite-difference verification of the analytic gradients.

Every differentiable operation gets a small randomized case.  The numeric
gradient perturbs one input entry at a time with a symmetric step, so it is
independent of the backward implementations it checks.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward


def numeric_grad(fn, arrays, which, step=1e-5):
    """d fn(arrays) / d arrays[which] by central differences.

    ``fn`` maps a list of numpy arrays to a scalar float and is evaluated
    2 * size times; no tape is involved.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    target = base[which]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn(base)
        flat[i] = keep - step
        lo = fn(base)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def check_gradients(build, arrays, step=1e-5):
    """Compare tape gradients of ``build`` against central differences.

    ``build(tensors) -> Tensor`` must produce a scalar from a list of leaf
    tensors.  Returns the maximum relative error over all inputs, where the
    relative error of one entry is |analytic - numeric| / max(1, |numeric|);
    a non-finite error returns inf, which fails every tolerance.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        out = build(leaves)
        backward(out)

    def fn(values):
        plain = [Tensor(v) for v in values]
        return float(build(plain).data)

    worst = 0.0
    for i, leaf in enumerate(leaves):
        numeric = numeric_grad(fn, arrays, i, step=step)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(numeric)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = np.max(err, initial=worst)  # unlike max(), keeps a NaN
    return float(worst) if np.isfinite(worst) else np.inf


def _rng(seed):
    return np.random.default_rng(seed)


def core_cases():
    """Small randomized builds covering each primitive of the engine."""
    r = _rng(1234)
    x = r.normal(size=(2, 3))
    y = r.normal(size=(2, 3))
    row = r.normal(size=(1, 3))
    cases = {
        "add_broadcast": (lambda t: ad.reduce_sum(ad.mul(ad.add(t[0], t[1]), t[0])), [x, row]),
        "mul": (lambda t: ad.reduce_sum(ad.mul(t[0], t[1])), [x, y]),
        "sub_neg": (lambda t: ad.reduce_sum(ad.mul(ad.sub(ad.neg(t[0]), t[1]), t[1])), [x, y]),
        "exp": (lambda t: ad.reduce_sum(ad.exp(t[0])), [x * 0.3]),
        "sigmoid": (lambda t: ad.reduce_sum(ad.sigmoid(t[0])), [x]),
        "tanh": (lambda t: ad.reduce_sum(ad.tanh(t[0])), [x]),
        "leaky_relu": (
            lambda t: ad.reduce_sum(ad.leaky_relu(t[0], 0.01)),
            [x + 0.1 * np.sign(x)],  # keep entries away from the kink
        ),
        "softplus": (lambda t: ad.reduce_sum(ad.softplus(t[0])), [x * 2.0]),
        "pow_const": (lambda t: ad.reduce_sum(ad.pow_const(t[0], 2.5)), [np.abs(x) + 0.3]),
        "matmul": (
            lambda t: ad.reduce_sum(ad.matmul(t[0], t[1])),
            [r.normal(size=(3, 4)), r.normal(size=(4, 2))],
        ),
        "matmul_batched": (
            lambda t: ad.reduce_sum(ad.matmul(t[0], t[1])),
            [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2))],
        ),
        "reduce_mean": (
            lambda t: ad.reduce_sum(ad.mul(ad.reduce_mean(t[0], axis=1), ad.reduce_mean(t[0], axis=1))),
            [x],
        ),
        "softmax": (
            lambda t: ad.reduce_sum(ad.mul(ad.softmax(t[0], axis=1), Tensor(y))),
            [x],
        ),
        "log_softmax": (
            lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t[0], axis=1), Tensor(y))),
            [x],
        ),
        "concat_stack_take": (
            lambda t: ad.reduce_sum(
                ad.mul(ad.stack([t[0], t[1]], axis=0), ad.stack([t[1], t[0]], axis=0))[:, :, 1:3]
            ),
            [x, y],
        ),
        "flip_transpose_reshape": (
            lambda t: ad.reduce_sum(
                ad.mul(ad.reshape(ad.transpose(ad.flip(t[0], 1)), (3, 2)), Tensor(y.T.copy()))
            ),
            [x],
        ),
    }
    weight = r.normal(size=(4, 3, 3))
    conv_input = r.normal(size=(2, 3, 7))
    bias = r.normal(size=(4,))
    probe = r.normal(size=(2, 4, 9))
    conv_variants = {
        "conv1d_plain": dict(stride=1, dilation=1, padding=0),
        "conv1d_stride": dict(stride=2, dilation=1, padding=1),
        "conv1d_dilated": dict(stride=1, dilation=2, padding=0),
        "conv1d_circular": dict(stride=2, dilation=1, padding="circular"),
        "conv1d_circular_dilated": dict(stride=1, dilation=2, padding="circular"),
        "conv1d_stride_dilated": dict(stride=2, dilation=2, padding=2),
    }
    for name, kwargs in conv_variants.items():
        def conv_case(t, kw=kwargs):
            out = ad.conv1d(t[0], t[1], t[2], **kw)
            mask = Tensor(probe[:, :, : out.shape[2]].copy())
            return ad.reduce_sum(ad.mul(out, mask))

        cases[name] = (conv_case, [conv_input, weight, bias])
    return cases


def model_cases():
    """Composite builds through the network blocks and losses."""
    from . import features, fusion, recurrent, training, wavelet

    r = _rng(99)
    cases = {}

    h = r.normal(size=(6,)) * 0.4
    sig = r.normal(size=(1, 1, 12))
    band_probe = r.normal(size=(1, 1, 12))

    def bank_case(t, probe):
        # g tied to h by the alternating flip, or free as a third input
        g = t[2] if len(t) > 2 else wavelet.derive_cqf(t[0])
        return ad.reduce_sum(ad.mul(wavelet.decompose_level(t[1], t[0], g), Tensor(probe)))

    cases["cqf_decompose"] = (lambda t: bank_case(t, band_probe.reshape(1, 2, 6)), [h, sig])
    # 4 taps on a batch of odd widths, which the level extends by one
    rb = _rng(12)
    bank_h, bank_sig, bank_g, bank_probe = (rb.normal(size=s) for s in [(4,), (2, 1, 9), (4,), (2, 2, 5)])
    cases["filter_bank_tied"] = (lambda t: bank_case(t, bank_probe), [bank_h, bank_sig])
    cases["filter_bank_free"] = (lambda t: bank_case(t, bank_probe), [bank_h, bank_sig, bank_g])

    laht_probe = r.normal(size=(5,))

    def laht_case(probe):
        # x, then the four raw parameters the laht node differentiates
        def build(t):
            out = wavelet.laht_apply(t[0], wavelet.LAHTParams(*t[1:]))
            return ad.reduce_sum(ad.mul(out, Tensor(probe)))

        return build

    # raw values of alpha = -4, beta = 4, bias_pos = 0.3 and bias_neg = 0.2
    cases["laht"] = (
        laht_case(laht_probe),
        [r.normal(size=(5,)), np.log(4.0), np.log(4.0), np.log(np.expm1(0.3)),
         np.log(np.expm1(0.2))],
    )

    # one level's (batch, 2, W) output, as the front end thresholds it
    rl = _rng(13)
    level_x, level_probe = rl.normal(size=(1, 2, 7)), rl.normal(size=(1, 2, 7))
    cases["laht_frontend_shape"] = (
        laht_case(level_probe),
        [level_x, np.log(6.0), np.log(5.0), np.log(np.expm1(0.2)), np.log(np.expm1(0.1))],
    )
    cases["laht_reparam"] = (
        laht_case(laht_probe),
        [r.normal(size=(5,)), np.array(0.5), np.array(0.5), np.array(-1.0), np.array(-1.2)],
    )

    block_probe = r.normal(size=(1, 3, 6))

    def conv_block_case(t):
        p = features.ConvBlockParams(weight=t[1], bias=t[2], stride=1, dilation=2)
        return ad.reduce_sum(ad.mul(features.conv_block(t[0], p), Tensor(block_probe)))

    cases["conv_block"] = (
        conv_block_case,
        [r.normal(size=(1, 2, 10)), r.normal(size=(3, 2, 3)), r.normal(size=(3,))],
    )

    spatial_probe = r.normal(size=(2, 3))

    def spatial_case(t):
        p = features.SpatialAttentionParams(score_weight=t[1])
        result = features.spatial_attention(t[0], p)
        return ad.reduce_sum(ad.mul(result.summary, Tensor(spatial_probe)))

    cases["spatial_attention"] = (
        spatial_case,
        [r.normal(size=(2, 3, 5)), r.normal(size=(1, 3, 1))],
    )

    d_in, d_h = 2, 3
    cell_probe = r.normal(size=(2, d_h))

    def gru_cell_case(t):
        p = recurrent.GRUCellParams(*t[2:])
        return ad.reduce_sum(ad.mul(recurrent.gru_cell_step(t[0], t[1], p), Tensor(cell_probe)))

    gru_arrays = [r.normal(size=(2, d_in)), r.normal(size=(2, d_h))]
    gru_arrays += [r.normal(size=s) * 0.5 for s in recurrent.GRUCellParams.shapes(d_in, d_h)]
    cases["gru_cell"] = (gru_cell_case, gru_arrays)

    rs = _rng(11)
    scan_probe = rs.normal(size=(2, 4, d_h))
    scan_arrays = [rs.normal(size=(2, 4, d_in))]
    scan_arrays += [rs.normal(size=s) * 0.5 for s in recurrent.GRUCellParams.shapes(d_in, d_h)]
    for name, reverse in (("gru_scan", False), ("gru_scan_reverse", True)):
        def scan_case(t, reverse=reverse):
            out = recurrent.gru_scan(t[0], recurrent.GRUCellParams(*t[1:]), reverse=reverse)
            return ad.reduce_sum(ad.mul(out, Tensor(scan_probe)))

        cases[name] = (scan_case, scan_arrays)

    # two input parts under one keep mask, scanned in both directions
    parts_keep, parts_probe = rs.random((2, 4, 5)) >= 0.3, rs.normal(size=(2, 2, 4, d_h))

    def parts_case(t):
        cell = recurrent.GRUCellParams(*t[2:])
        outs = [recurrent.gru_scan(t[:2], cell, rev, parts_keep, 1 / 0.7) for rev in (False, True)]
        return ad.reduce_sum(ad.mul(ad.stack(outs, axis=0), Tensor(parts_probe)))

    parts_arrays = [rs.normal(size=(2, 4, 2)), rs.normal(size=(2, 4, 3))]
    parts_arrays += [rs.normal(size=s) * 0.5 for s in recurrent.GRUCellParams.shapes(5, d_h)]
    cases["gru_scan_parts"] = (parts_case, parts_arrays)

    # a backward whose steps fill one Jacobian chunk and spill one into a second
    t_chunks = recurrent.CHUNK + 2
    chunk_probe = rs.normal(size=(1, t_chunks, d_h))
    chunk_arrays = [rs.normal(size=(1, t_chunks, d_in))]
    chunk_arrays += [rs.normal(size=s) * 0.5 for s in recurrent.GRUCellParams.shapes(d_in, d_h)]

    def chunk_case(t):
        out = recurrent.gru_scan(t[0], recurrent.GRUCellParams(*t[1:]))
        return ad.reduce_sum(ad.mul(out, Tensor(chunk_probe)))

    cases["gru_scan_chunks"] = (chunk_case, chunk_arrays)

    bigru_probe = r.normal(size=(1, 4, 2 * d_h))
    template = recurrent.BiGRUStack.init(2, d_in, d_h, 0.0, _rng(7))
    bigru_arrays = [r.normal(size=(1, 4, d_in))] + [p.data * 0.5 for p in template.parameters()]
    for name, p in (("bigru_2layer", 0.0), ("bigru_2layer_dropout", 0.3)):
        def bigru_case(t, p=p):
            # a fresh generator draws the same dropout masks on every evaluation
            stack = recurrent.BiGRUStack.from_tensors(t[1:], layers=2, dropout_p=p)
            out = recurrent.bigru_forward(t[0], stack, np.random.default_rng(3))
            return ad.reduce_sum(ad.mul(out, Tensor(bigru_probe)))

        cases[name] = (bigru_case, bigru_arrays)

    d_att = 2 * d_h
    # one stack and one attention shared by a T = 3 and a T = 5 sequence, masks
    # drawn sequence-major from one fresh generator: what Network.encode runs
    rr = _rng(14)
    ragged_probe = rr.normal(size=(2, 1, 4))
    ragged_arrays = [rr.normal(size=(1, 3, 1)), rr.normal(size=(1, 5, 1))]
    ragged_arrays += [p.data for p in recurrent.BiGRUStack.init(2, 1, 2, 0.0, rr).parameters()
                      + recurrent.TemporalAttentionParams.init(4, rr).tensors()]

    def encode_ragged_case(t):
        stack = recurrent.BiGRUStack.from_tensors(t[2:18], layers=2, dropout_p=0.3)
        temporal = recurrent.TemporalAttentionParams(*t[18:])
        rng = np.random.default_rng(5)
        vectors = [recurrent.temporal_attention(recurrent.bigru_forward(seq, stack, rng), temporal)
                   for seq in t[:2]]
        return ad.reduce_sum(ad.mul(ad.stack(vectors, axis=0), Tensor(ragged_probe)))

    cases["encode_ragged"] = (encode_ragged_case, ragged_arrays)

    temporal_probe = r.normal(size=(2, d_att))

    def temporal_case(t):
        p = recurrent.TemporalAttentionParams(fc1_weight=t[1], fc2_weight=t[2], fc2_bias=t[3])
        return ad.reduce_sum(ad.mul(recurrent.temporal_attention(t[0], p), Tensor(temporal_probe)))

    cases["temporal_attention"] = (
        temporal_case,
        [r.normal(size=(2, 3, d_att)), r.normal(size=(d_att, d_att)) * 0.5,
         r.normal(size=(d_att, 2 * d_att)) * 0.5, r.normal(size=(d_att,))],
    )

    channel_probe = r.normal(size=(2, 3, 4))

    def channel_case(t):
        weighted = fusion.channel_weighting(t[0], fusion.ChannelWeights(w=t[1]))
        return ad.reduce_sum(ad.mul(weighted, Tensor(channel_probe)))

    cases["channel_weighting"] = (channel_case, [r.normal(size=(2, 3, 4)), r.normal(size=(3,))])

    def focal_case(t):
        logp = ad.log_softmax(t[0], axis=1)
        cfg = training.LossConfig(gamma=2.0, class_alpha=np.array([1.0, 2.0, 0.5]), lam=0.0)
        return training.focal_loss(logp, [0, 2], cfg)

    cases["focal_loss"] = (focal_case, [r.normal(size=(2, 3))])

    def l2_case(t):
        task = ad.reduce_sum(ad.mul(t[0], t[0]))
        return training.regularized_objective(task, [t[1]], 0.3)

    cases["l2_penalty"] = (l2_case, [r.normal(size=(3,)), r.normal(size=(2, 2))])
    return cases


def all_cases():
    cases = dict(core_cases())
    cases.update(model_cases())
    return cases


def run_suite(tol=1e-4, step=1e-5, cases=None):
    """Run every case; returns {name: max_rel_error} and prints one line each."""
    results = {}
    for name, (build, arrays) in (cases or all_cases()).items():
        err = check_gradients(build, arrays, step=step)
        results[name] = err
        status = "ok" if err < tol else "FAIL"
        print(f"gradcheck {name:<24s} max_rel_err={err:.3e} [{status}]")
    return results
