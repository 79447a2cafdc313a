"""Bidirectional recurrent sequence encoding with attention over time.

Gated recurrent cells follow the standard reset/update/candidate form.  Each
direction stores the four tensors its scan consumes: input weights ``w_ih``
(3H, D), hidden weights ``w_hh`` (3H, H) and biases ``b_ih``, ``b_hh`` (3H,),
with gate rows stacked in r, z, n order.  A scan is one tape node that keeps
only its states: it runs the recurrence from a zero state ``CHUNK`` steps at a
time through reused buffers, each step one matmul and eight in-place ufuncs.
Its backward walks the chunks last first, recomputes each chunk's gates from
the states and builds their Jacobians in bulk, so each step is one
vector-matrix product.  The stacked encoder runs one scan forward and one
backward over time per layer; the next layer's scans read both state views
in place, and dropout (between layers only, during training, from a seeded
generator) is a boolean mask they fold into their input.  The attention head,
one tape node, reads the last layer's two views in place: it scores the
states against the final state, softmax-normalizes over time, and squashes a
linear map of [context; final state] to produce one vector per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputTooShortError

CHUNK = 128  # scan steps projected, stepped and back-propagated in one set of buffers


@dataclass
class GRUCellParams:
    w_ih: Tensor  # (3H, D_in)
    w_hh: Tensor  # (3H, H)
    b_ih: Tensor  # (3H,)
    b_hh: Tensor  # (3H,)

    @staticmethod
    def shapes(input_size, hidden_size):
        rows = 3 * hidden_size
        return [(rows, input_size), (rows, hidden_size), (rows,), (rows,)]

    @classmethod
    def init(cls, input_size, hidden_size, rng):
        k = 1.0 / np.sqrt(hidden_size)
        arrays = [rng.uniform(-k, k, size=s) for s in cls.shapes(input_size, hidden_size)]
        return cls(*[ad.parameter(a) for a in arrays])


def _operands(w_ih, w, b_ih, b_hh):
    """(3, D + 1, H) gate blocks of a C-ordered ``[w_ih | b]^T`` and the (H + 1, 3H)
    ``w_aug`` of ``gru_scan``, with the r and z rows negated."""
    d_in, H = w_ih.shape[1], w.shape[1]
    sign = np.repeat([-1.0, -1.0, 1.0], H)
    w_in = np.empty((d_in + 1, 3 * H))
    np.multiply(w_ih.T, sign, w_in[:d_in])
    np.multiply(b_ih + np.concatenate([b_hh[: 2 * H], np.zeros(H)]), sign, w_in[d_in])
    w_aug = np.empty((H + 1, 3 * H))
    w_aug[:H] = (sign[:, None] * w).T
    w_aug[H] = np.concatenate([np.zeros(2 * H), b_hh[2 * H :]])
    return w_in.reshape(d_in + 1, 3, H).transpose(1, 0, 2), w_aug


def _project(src, keep, scale, lo, hi, w_in, u):
    """Project scan steps lo..hi of the scan-order parts into (3, rows, H) blocks
    ``u``; return the (rows, D + 1) input rows ``[x * keep * scale | 1]``."""
    d_in = w_in.shape[1] - 1
    xt = np.empty((hi - lo, src[0].shape[0], d_in + 1))
    xt[:, :, d_in] = 1.0
    np.concatenate([s[:, lo:hi].transpose(1, 0, 2) for s in src], 2, out=xt[:, :, :d_in])
    if keep is not None:  # (x * keep) * scale, in dropout's order
        x = xt[:, :, :d_in]
        x *= keep[:, lo:hi].transpose(1, 0, 2)
        x *= scale
    xt = xt.reshape(-1, d_in + 1)
    np.matmul(xt, w_in, u)
    return xt


def gru_scan(x, cell, reverse=False, keep=None, scale=1.0):
    """One recurrent direction over (batch, T, D_in) input, from a zero state.

    ``x`` is the input, or a sequence of (batch, T, D_i) parts of it along
    features, such as the previous layer's two state views, read in place.
    With a boolean ``keep`` mask of x's shape the scan reads ``x * keep *
    scale`` and returns each part's slice of ``g * keep * scale``.  Returns
    the (batch, T, H) states, aligned with input time in either direction, as
    one tape node over the parts and ``cell``'s four tensors.  Beside the
    mask, it keeps only the (T + 1, B, H) states in scan order (from the end
    when ``reverse``), which the output views; its other buffers are its own
    and hold at most ``CHUNK`` steps.  The package runs on one thread.

    The forward steps through a (CHUNK + 1, B, 4H + 1) work array of rows
    ``[h | 1 | u_rz | u_n]``.  The 1 carries ``b_hh``'s candidate rows through
    the hidden matmul ``v``; the input projection ``u``, one matmul per gate
    of each chunk's masked scan-order ``[x | 1]`` rows, folds in the other
    biases, and the backward's recompute of it is bitwise the same.  Both
    negate the r and z rows, so r and z are ``1 / (1 + exp(u + v))``.  Each
    step is one matmul of a row against a (4H + 1, 4H) weight whose identity
    blocks give ``[u_rz + v_rz | v_n | u_n]``, then eight in-place ufuncs:
    ``q = 1 + exp(.)`` is ``1 / [r, z]``, ``n = tanh(v_n / q_r + u_n)`` and
    ``h = (h_prev - n) / q_z + n``, written into the next row.

    The backward walks the chunks last first, carrying the state gradient
    across each boundary.  Per chunk it rebuilds the ``[h | 1]`` rows,
    recomputes ``[v | u]`` into six blocks and turns them in place into
    ``k_n``, ``z`` and ``k = [k_r, k_z, k_n r]``, by which ``dh_s`` reaches
    ``h_(s-1)`` (``z``), the pre-activations of r and z, and ``w_hn h``.  So
    ``dh_(s-1) = [dh_s | 1] J_s``, where the (H + 1, H) block ``J_s`` stacks
    ``sum_g diag(k_g,s) w_g + diag(z_s)`` over ``g_(s-1)``: one batched matmul
    and one strided diagonal add build the chunk's blocks, and each row-step
    is one ``np.dot`` (step 0 needs none, from the zero state).  Then ``k dh``
    gives the hidden-side weight gradients and, with the input-side
    candidate's, is copied as (rows, 3H) over the spent ``[r, z, k_n]`` blocks
    for the input-side ones and the chunk's rows of the input gradient.
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    xds = [p.data for p in parts]
    w_ih, w, b_ih, b_hh = cell.w_ih.data, cell.w_hh.data, cell.b_ih.data, cell.b_hh.data
    edges = [0, *accumulate(xd.shape[-1] for xd in xds)]
    B, T, H, D = *xds[0].shape[:2], w.shape[1], edges[-1]
    if D != w_ih.shape[1] or {xd.shape[:-1] for xd in xds} != {(B, T)} or (
            keep is not None and keep.shape != (B, T, D)):
        raise DimensionError(f"scan parts {[xd.shape for xd in xds]} and keep mask do not "
                             f"make one (batch, T, {w_ih.shape[1]}) input")
    step = -1 if reverse else 1  # src, keep and every (T, B, .) array below are in scan order
    src = [xd[:, ::step] for xd in xds]
    keep = None if keep is None else keep[:, ::step]
    w_in, w_aug = _operands(w_ih, w, b_ih, b_hh)
    hs = np.empty((T + 1, B, H))
    hs[0] = 0.0
    work = np.zeros((min(T, CHUNK) + 1, B, 4 * H + 1))  # from the zero state
    work[:, :, H] = 1.0
    # a row [h | 1 | u_rz | u_n] times w_work is [u_rz + v_rz | v_n | u_n]
    w_work = np.zeros((4 * H + 1, 4 * H))
    w_work[: H + 1, : 3 * H] = w_aug
    w_work[H + 1 : 3 * H + 1, : 2 * H] = np.eye(2 * H)
    w_work[3 * H + 1 :, 3 * H :] = np.eye(H)
    o = np.empty((B, 4 * H))
    q, n, u_n = o[:, : 2 * H], o[:, 2 * H : 3 * H], o[:, 3 * H :]
    q_r, q_z = q[:, :H], q[:, H:]
    ones = np.ones((B, 2 * H))  # an array operand adds faster than a Python float
    dot, exp, add, divide, tanh, subtract = np.dot, np.exp, np.add, np.divide, np.tanh, np.subtract
    with np.errstate(over="ignore"):  # a saturated gate's exp is inf, so r or z is 0
        for lo in range(0, T, CHUNK):
            size = min(CHUNK, T - lo)
            u = work[:size, :, H + 1 :].reshape(size * B, 3, H).transpose(1, 0, 2)
            _project(src, keep, scale, lo, lo + size, w_in, u)
            for row, h_prev, h in zip(work[:size], work[:size, :, :H], work[1 : size + 1, :, :H]):
                dot(row, w_work, o)
                exp(q, q)
                add(q, ones, q)  # q = 1 / [r, z]
                divide(n, q_r, n)  # v_n r
                add(n, u_n, n)
                tanh(n, n)
                subtract(h_prev, n, h)  # h = n + z (h_prev - n)
                divide(h, q_z, h)
                add(h, n, h)
            hs[lo + 1 : lo + size + 1] = work[1 : size + 1, :, :H]
            work[0, :, :H] = work[size, :, :H]
    out = hs[1:].transpose(1, 0, 2)[:, ::step]
    parents = (*parts, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
    backward = partial(_scan_backward, hs, src, keep, scale, step, (w_ih, w, b_ih, b_hh))
    return ad.record("gru_scan", out, parents, backward)


def _scan_backward(hs, src, keep, scale, step, weights, g):
    """``gru_scan``'s backward: the gradients of its parts and the cell's four tensors."""
    w_ih, w, b_ih, b_hh = weights
    (B, T, H), D = g.shape, w_ih.shape[1]
    w_in, w_aug = _operands(w_ih, w, b_ih, b_hh)
    chunk = min(T, CHUNK)
    buf = np.empty((6, chunk, B, H))  # [v | u], then [k_r, k_z, k_n r, r, z, k_n]
    h_aug = np.ones((chunk, B, H + 1))
    dh = np.ones((chunk + 1, B, H + 1))  # dh[j] is the gradient of state lo + j
    dh_rows = dh.reshape(-1, H + 1)
    jacs = np.empty((chunk * B, H + 1, H))
    g_scan = g.transpose(1, 0, 2)[::step]
    dx = np.empty((B, T, D))
    dw_aug = np.zeros((3, H, H + 1))  # the constant column's gradient is b_hh's
    dw_in = np.zeros((3 * H, D + 1))  # the constant column's gradient is b_ih's
    w_rows = w.reshape(3, H, H).transpose(1, 0, 2)  # (H, 3, H)
    carry = g_scan[T - 1]
    dot = np.dot
    for lo in reversed(range(0, T, CHUNK)):
        size = min(CHUNK, T - lo)
        rows = size * B
        gates = buf[:, :size]
        h_aug[:size, :, :H] = hs[lo : lo + size]
        h_rows = h_aug[:size].reshape(rows, H + 1)
        xt = _project(src, keep, scale, lo, lo + size, w_in, gates[3:].reshape(3, rows, H))
        np.matmul(h_rows, w_aug.reshape(H + 1, 3, H).transpose(1, 0, 2),
                  gates[:3].reshape(3, rows, H))
        k_r, k_z, vn_r, r, z, n = gates
        rz = gates[3:5]
        rz += gates[:2]
        with np.errstate(over="ignore"):
            np.exp(rz, rz)
        rz += 1.0
        np.reciprocal(rz, rz)
        vn_r *= r
        n += vn_r
        np.tanh(n, n)
        np.subtract(1.0, z, k_r)
        np.multiply(np.subtract(hs[lo : lo + size], n, k_z), z, k_z)
        k_z *= k_r
        k_n = n  # (1 - z)(1 - n^2)
        np.subtract(1.0, np.square(n, k_n), k_n)
        k_n *= k_r
        np.multiply(np.subtract(1.0, r, k_r), k_n, k_r)
        k_r *= vn_r  # k_n v_n r (1 - r)
        np.multiply(k_n, r, vn_r)
        # dh[j - 1] = [dh[j] | 1] J_(lo + j - 1) per row; J_s stacks the
        # (H, H) state Jacobian sum_g diag(k_g) w_g + diag(z) over g_(s-1)
        dh[size, :, :H] = carry
        first = 1 if lo == 0 else 0  # the zero initial state needs no gradient
        block = slice(first * B, rows)
        jac = jacs[: rows - first * B]
        k_rows = gates[:3].reshape(3, rows, H).transpose(2, 1, 0)  # (H, rows, 3)
        np.matmul(k_rows[:, block], w_rows, jac[:, :H].transpose(1, 0, 2))
        jac.reshape(-1, (H + 1) * H)[:, : H * H : H + 1] += z.reshape(rows, H)[block]
        jac[:, H] = g_scan[lo + first - 1 : lo + size - 1].reshape(-1, H)
        for dh_s, jac_s, dh_p in zip(dh_rows[(first + 1) * B : (size + 1) * B][::-1],
                                     jac[::-1], dh_rows[block, :H][::-1]):
            dot(dh_s, jac_s, dh_p)
        carry = dh[0, :, :H]
        # gradients of the pre-activations r, z and w_hn h, then with the
        # input-side candidate's in place of w_hn h's, as (rows, 3H)
        k = gates[:3]
        for k_g in k:  # one gate at a time, which numpy buffers less
            k_g *= dh[1 : size + 1, :, :H]
        dw_aug += np.matmul(k.reshape(3, rows, H).transpose(0, 2, 1), h_rows)
        np.multiply(k_n, dh[1 : size + 1, :, :H], vn_r)
        dk = buf[3:].reshape(-1)[: 3 * rows * H].reshape(rows, 3 * H)
        dk.reshape(size, B, 3, H)[...] = k.transpose(1, 2, 0, 3)
        dw_in += dk.T @ xt
        dx[:, ::step][:, lo : lo + size] = (dk @ w_ih).reshape(size, B, D).transpose(1, 0, 2)
    if keep is not None:
        dx *= keep[:, ::step]
        dx *= scale
    edges = [0, *accumulate(s.shape[2] for s in src)]
    dparts = (dx[:, :, lo:hi] for lo, hi in zip(edges, edges[1:]))
    return (*dparts, dw_in[:, :D], dw_aug[:, :, :H].reshape(3 * H, H), dw_in[:, D],
            dw_aug[:, :, H].reshape(3 * H))


@dataclass
class BiGRULayer:
    fwd: GRUCellParams
    bwd: GRUCellParams


@dataclass
class BiGRUStack:
    layers: list
    dropout_p: float

    @classmethod
    def init(cls, layers, input_size, hidden_size, dropout_p, rng):
        built = []
        d_in = input_size
        for _ in range(layers):
            built.append(
                BiGRULayer(
                    fwd=GRUCellParams.init(d_in, hidden_size, rng),
                    bwd=GRUCellParams.init(d_in, hidden_size, rng),
                )
            )
            d_in = 2 * hidden_size
        return cls(layers=built, dropout_p=dropout_p)


def bigru_forward(seq, stack, rng=None):
    """Encode (batch, T, D_in) into the last layer's (forward, reverse) pair of
    (batch, T, hidden) state views, which ``temporal_attention`` reads in place.

    Inter-layer activations are dropped out with probability ``dropout_p``
    when ``rng`` is a Generator: it draws each mask, ``rng.random(shape) >=
    dropout_p``, layer by layer, so a fixed seed reproduces the pass bit for
    bit, and the next layer's scans fold it in.  With no ``rng``, no dropout.
    """
    if seq.data.ndim != 3:
        raise DimensionError("bigru_forward expects (batch, T, D_in)")
    if seq.data.shape[1] < 1:
        raise InputTooShortError("bigru_forward needs at least one time step")
    p, scale = stack.dropout_p, 1.0 / (1.0 - stack.dropout_p)
    parts, keep = seq, None
    for index, layer in enumerate(stack.layers):
        if index > 0 and rng is not None and p > 0.0:
            keep = rng.random((*seq.data.shape[:2], sum(t.data.shape[2] for t in parts))) >= p
        parts = (gru_scan(parts, layer.fwd, keep=keep, scale=scale),
                 gru_scan(parts, layer.bwd, reverse=True, keep=keep, scale=scale))
    return parts


@dataclass
class TemporalAttentionParams:
    # (D, D); a bias b would add the same b.h_last to every step's score
    fc1_weight: Tensor
    fc2_weight: Tensor  # (D, 2D), applied to [context; final state]
    fc2_bias: Tensor

    @classmethod
    def init(cls, dim, rng):
        k1 = 1.0 / np.sqrt(dim)
        k2 = 1.0 / np.sqrt(2 * dim)
        return cls(
            fc1_weight=ad.parameter(rng.uniform(-k1, k1, size=(dim, dim))),
            fc2_weight=ad.parameter(rng.uniform(-k2, k2, size=(dim, 2 * dim))),
            fc2_bias=ad.parameter(rng.uniform(-k2, k2, size=(dim,))),
        )


def temporal_attention(states, p):
    """Collapse (batch, T, D) state sequences to one (batch, D) vector each.

    ``states`` is a Tensor or a sequence of (batch, T, D_i) parts of one, such
    as ``bigru_forward``'s pair.  Softmax over time of the scores ``states @
    q``, for ``q = h_last @ fc1`` and the state ``h_last`` at T - 1, weights
    the context sum; the output is ``tanh(fc2 [context; h_last] + b)``.  One
    tape node, which keeps the (batch, T) weights, q, ``[context; h_last]``
    and the output, and reads the parts in place.
    """
    parts = (states,) if isinstance(states, Tensor) else tuple(states)
    sds = [t.data for t in parts]
    if any(s.ndim != 3 for s in sds) or len({s.shape[:2] for s in sds}) != 1:
        raise DimensionError("temporal_attention expects (batch, T, D) states or parts of them")
    edges = [0, *accumulate(s.shape[2] for s in sds)]
    (batch, t_len), dim = sds[0].shape[:2], edges[-1]
    fc1, fc2 = p.fc1_weight.data, p.fc2_weight.data
    if fc2.shape[1] != 2 * dim:
        raise DimensionError("fc2 input extent must be 2 * D")
    spans = list(zip(sds, edges, edges[1:]))
    h_last = np.concatenate([s[:, t_len - 1] for s in sds], axis=1)
    q = h_last @ fc1
    scores = sum(s @ q[:, lo:hi, None] for s, lo, hi in spans)[:, :, 0]
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    merged = np.concatenate([*((weights[:, None] @ s)[:, 0] for s in sds), h_last], axis=1)
    out = np.tanh(merged @ fc2.T + p.fc2_bias.data)

    def bwd(g):
        gy = g * (1.0 - out * out)
        d_merged = gy @ fc2
        d_context, d_last = d_merged[:, :dim], d_merged[:, dim:]
        d_weights = sum(s @ d_context[:, lo:hi, None] for s, lo, hi in spans)[:, :, 0]
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_q = np.concatenate([(d_scores[:, None] @ s)[:, 0] for s, _, _ in spans], axis=1)
        d_last += d_q @ fc1.T
        # d states = weights (x) d_context + d_scores (x) q, plus d_last at T - 1
        dparts = []
        for s, lo, hi in spans:
            ds = weights[:, :, None] * d_context[:, None, lo:hi]
            ds += d_scores[:, :, None] * q[:, None, lo:hi]
            ds[:, t_len - 1] += d_last[:, lo:hi]
            dparts.append(ds)
        return (*dparts, h_last.T @ d_q, gy.T @ merged, gy.sum(axis=0))

    return ad.record("temporal_attention", out, (*parts, p.fc1_weight, p.fc2_weight, p.fc2_bias),
                     bwd)
