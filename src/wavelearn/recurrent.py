"""Bidirectional recurrent sequence encoding with attention over time.

Gated recurrent cells follow the standard reset/update/candidate form.  Each
direction stores the four tensors its scan consumes: input weights ``w_ih``
(3H, D), hidden weights ``w_hh`` (3H, H) and biases ``b_ih``, ``b_hh`` (3H,),
with gate rows stacked in r, z, n order.  A scan is one tape node: it
projects a direction's whole (batch, T, D) input in one matrix product into a
work array beside the state, and runs the recurrence from a zero state as one
matmul and eight in-place ufuncs per step.  The tape keeps only the state
sequence, and the returned states are a view of it.  The backward recomputes
every gate from the states in place, in the call's own buffers, and builds
the per-step state Jacobians in bulk, ``CHUNK`` steps at a time, so each
step is one vector-matrix product.  The stacked encoder runs one scan
forward and one backward over time per layer; the next layer's scans read
both state views in place, dropout (between layers only, during training,
from a seeded generator) is a boolean mask they fold into their input, and
only the last layer's states are concatenated.  The attention head
scores hidden states against the final state, softmax-normalizes over time,
and squashes a linear map of [context; final state] to produce one vector
per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputTooShortError

CHUNK = 128  # scan steps whose backward Jacobian blocks are built at once


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

    def tensors(self):
        return [self.w_ih, self.w_hh, self.b_ih, self.b_hh]

    @property
    def hidden_size(self):
        return self.w_hh.data.shape[1]


def _linear(x, w, b):
    return ad.add(ad.matmul(x, ad.transpose(w)), b)


def gru_cell_step(x_t, h_prev, p):
    """One recurrence step on (batch, D_in) input and (batch, D_h) state.

    Reads each gate's rows of the fused weights separately, independent of
    ``gru_scan``, so it serves as the reference the scan is tested against.
    """
    if x_t.data.shape[1] != p.w_ih.data.shape[1]:
        raise DimensionError(
            f"cell input extent {x_t.data.shape[1]} != {p.w_ih.data.shape[1]}"
        )
    hidden = p.hidden_size
    if h_prev.data.shape[1] != hidden:
        raise DimensionError(f"cell state extent {h_prev.data.shape[1]} != {hidden}")
    rows = [slice(i * hidden, (i + 1) * hidden) for i in range(3)]
    x_r, x_z, x_n = (_linear(x_t, p.w_ih[s], p.b_ih[s]) for s in rows)
    h_r, h_z, h_n = (_linear(h_prev, p.w_hh[s], p.b_hh[s]) for s in rows)
    r = ad.sigmoid(ad.add(x_r, h_r))
    z = ad.sigmoid(ad.add(x_z, h_z))
    n = ad.tanh(ad.add(x_n, ad.mul(r, h_n)))
    return ad.add(ad.mul(ad.sub(Tensor(1.0), z), n), ad.mul(z, h_prev))


def gru_scan(x, cell, reverse=False, keep=None, scale=1.0):
    """One recurrent direction over (batch, T, D_in) input, from a zero state.

    ``x`` is the input, or a sequence of (batch, T, D_i) parts of it along
    features, such as the previous layer's two state views, read in place.
    With a boolean ``keep`` mask of x's shape the scan reads ``x * keep *
    scale`` and returns each part's slice of ``g * keep * scale``.  Returns
    the (batch, T, H) states, aligned with input time in either direction, as
    one tape node over the parts and ``cell``'s four tensors.  Beside the
    mask, it keeps only the (T + 1, B, H + 1) state array in scan order (from
    the end when ``reverse``); the returned states are a view of it.  Its last
    column is a constant 1 that carries ``b_hh``'s candidate rows through the
    hidden matmul ``v``, and the input projection ``u`` folds in ``b_hh``'s r
    and z rows.  Both negate those rows, so r and z are ``1 / (1 + exp(u + v))``.

    The forward writes ``u`` into a transient (T + 1, B, 4H + 1) work array
    whose rows are ``[h | 1 | u_rz | u_n]``.  Both directions write ``u`` the
    same way: per gate, one matmul of the masked scan-order x (one copy of
    the parts, or one unmasked input read in place) against a (D, H) block
    of a C-ordered ``w_ih^T``, then one bias add, so the backward's recompute
    equals the forward's bitwise.  Each step is one matmul of a row against a
    (4H + 1, 4H) weight whose identity blocks add ``u_rz`` and pass ``u_n``
    through, giving ``[u_rz + v_rz | v_n | u_n]``, then eight in-place ufuncs:
    ``q = 1 + exp(.)`` is ``1 / [r, z]``, ``n = tanh(v_n / q_r + u_n)`` and
    ``h = (h_prev - n) / q_z + n``, written into the next row.

    The backward recomputes ``[v | u]`` into six contiguous (T, B, H) blocks
    and turns them in place into ``k_n``, ``z`` and ``k = [k_r, k_z, k_n r]``,
    by which ``dh_s`` reaches ``h_(s-1)`` (``z``), the pre-activations of r and
    z, and ``w_hn h``.  So ``dh_(s-1) = [dh_s | 1] J_s``, where the (H + 1, H)
    block ``J_s`` stacks ``sum_g diag(k_g,s) w_g + diag(z_s)`` over ``g_(s-1)``.
    For at most ``CHUNK`` steps at a time, last chunk first, one batched matmul
    of ``k`` by ``w_hh`` and one strided diagonal add build every row's blocks,
    so each row-step of the loop over the flattened (step, row) pairs is one
    ``np.dot``: the scaling by ``k_s`` sits inside the block.  The blocks take
    ``CHUNK (H + 1) / T`` units of ``8 T B H`` bytes (1.4 at T = 1,511, H = 16),
    never a whole (T, B, H, H); step 0's is not built, as the zero initial
    state needs no gradient.  Then ``k dh`` is one broadcast product.  Each
    call allocates its own work arrays; the package runs on one thread.
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    xds = [p.data for p in parts]
    w_ih, w, b_ih, b_hh = (t.data for t in cell.tensors())
    edges = [0, *accumulate(xd.shape[-1] for xd in xds)]
    B, T, H, D = *xds[0].shape[:2], w.shape[1], edges[-1]
    if D != w_ih.shape[1] or {xd.shape[:-1] for xd in xds} != {(B, T)} or (
            keep is not None and keep.shape != (B, T, D)):
        raise DimensionError(f"scan parts {[xd.shape for xd in xds]} and keep mask do not "
                             f"make one (batch, T, {w_ih.shape[1]}) input")
    step = -1 if reverse else 1  # every (T, B, .) array below is in scan order

    def operands(u):
        """Write the projection into (3, T B, H) blocks ``u``; return scan-order x and w_aug."""
        sign = np.repeat([-1.0, -1.0, 1.0], H)  # r and z rows negated
        bias = sign * (b_ih + np.concatenate([b_hh[: 2 * H], np.zeros(H)]))
        src = [xd[:, ::step].transpose(1, 0, 2) for xd in xds]
        fresh = len(src) > 1 or keep is not None  # a copy of the call's own, masked in place
        xt = np.concatenate(src, 2) if fresh else np.ascontiguousarray(src[0])
        if keep is not None:  # (x * keep) * scale, in dropout's order
            xt *= keep[:, ::step].transpose(1, 0, 2)
            xt *= scale
        xt = xt.reshape(T * B, D)
        # a C-ordered w_ih^T, so each gate's (D, H) block has contiguous rows
        w_in = np.empty((D, 3 * H))
        np.multiply(w_ih.T, sign, w_in)
        np.matmul(xt, w_in.reshape(D, 3, H).transpose(1, 0, 2), u)
        u += bias.reshape(3, 1, H)
        w_aug = np.empty((H + 1, 3 * H))
        w_aug[:H] = (sign[:, None] * w).T
        w_aug[H] = np.concatenate([np.zeros(2 * H), b_hh[2 * H :]])
        return xt, w_aug

    work = np.empty((T + 1, B, 4 * H + 1))
    w_aug = operands(work[:T, :, H + 1 :].reshape(T * B, 3, H).transpose(1, 0, 2))[1]
    work[0, :, :H] = 0.0
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
        for row, h_prev, h in zip(work[:-1], work[:-1, :, :H], work[1:, :, :H]):
            dot(row, w_work, o)
            exp(q, q)
            add(q, ones, q)  # q = 1 / [r, z]
            divide(n, q_r, n)  # v_n r
            add(n, u_n, n)
            tanh(n, n)
            subtract(h_prev, n, h)  # h = n + z (h_prev - n)
            divide(h, q_z, h)
            add(h, n, h)
    hs = work[:, :, : H + 1].copy()
    out = hs[1:, :, :H].transpose(1, 0, 2)[:, ::step]

    def bwd(g):
        h_aug = hs[:-1].reshape(T * B, H + 1)
        h_prev = hs[:-1, :, :H]
        gates = np.empty((6, T, B, H))  # [v | u], then [k_r, k_z, k_n r, r, z, k_n]
        xt, w_aug = operands(gates[3:].reshape(3, T * B, H))
        v = gates[:3].reshape(3, T * B, H)
        np.matmul(h_aug, w_aug.reshape(H + 1, 3, H).transpose(1, 0, 2), v)
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
        np.multiply(np.subtract(h_prev, n, k_z), z, k_z)
        k_z *= k_r
        k_n = n  # (1 - z)(1 - n^2)
        np.subtract(1.0, np.square(n, k_n), k_n)
        k_n *= k_r
        np.multiply(np.subtract(1.0, r, k_r), k_n, k_r)
        k_r *= vn_r  # k_n v_n r (1 - r)
        np.multiply(k_n, r, vn_r)
        # dh[s - 1] = [dh[s] | 1] J_s per row; J_s stacks the (H, H) state
        # Jacobian sum_g diag(k_g) w_g + diag(z) over the row g_(s-1)
        g_scan = g.transpose(1, 0, 2)[::step]
        dh = np.empty((T, B, H + 1))  # dh[s] is the gradient of step s's state
        dh[T - 1, :, :H] = g_scan[T - 1]
        dh[:, :, H] = 1.0
        dh_rows = dh.reshape(T * B, H + 1)
        k_rows = gates[:3].reshape(3, T * B, H).transpose(2, 1, 0)  # (H, T B, 3)
        w_rows = w.reshape(3, H, H).transpose(1, 0, 2)  # (H, 3, H)
        z_rows = z.reshape(T * B, H)
        dot = np.dot
        for hi in range(T, 1, -CHUNK):
            lo = max(hi - CHUNK, 1)
            rows = slice(lo * B, hi * B)
            jac = np.empty(((hi - lo) * B, H + 1, H))
            np.matmul(k_rows[:, rows], w_rows, jac[:, :H].transpose(1, 0, 2))
            jac.reshape(-1, (H + 1) * H)[:, : H * H : H + 1] += z_rows[rows]
            jac[:, H] = g_scan[lo - 1 : hi - 1].reshape(-1, H)
            dh_prev = dh_rows[(lo - 1) * B : (hi - 1) * B, :H]
            for dh_s, jac_s, dh_p in zip(dh_rows[rows][::-1], jac[::-1], dh_prev[::-1]):
                dot(dh_s, jac_s, dh_p)
        # gradients of the pre-activations r, z and w_hn h; the constant state
        # column's weight gradient is b_hh's
        dk = np.empty((T, B, 3, H))
        np.multiply(gates[:3].transpose(1, 2, 0, 3), dh[:, :, None, :H], dk)
        dxp = dk.reshape(T * B, 3 * H)
        dw_aug = dxp.T @ h_aug
        np.multiply(dh[:, :, :H], k_n, dk[:, :, 2])  # the input-side candidate gradient
        dx = (dxp @ w_ih).reshape(T, B, D).transpose(1, 0, 2)[:, ::step]
        if keep is not None:
            dx *= keep
            dx *= scale
        dparts = (dx[:, :, lo:hi] for lo, hi in zip(edges, edges[1:]))
        return (*dparts, dxp.T @ xt, dw_aug[:, :H], dxp.sum(axis=0), dw_aug[:, H])

    parents = (*parts, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
    return ad.record("gru_scan", out, parents, bwd)


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
        if not 0.0 <= dropout_p < 1.0:
            raise DimensionError("dropout_p must lie in [0, 1)")
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

    @classmethod
    def from_tensors(cls, tensors, layers, dropout_p):
        """Rebuild a stack from tensors in ``parameters()`` order."""
        cells = [GRUCellParams(*tensors[i : i + 4]) for i in range(0, 8 * layers, 4)]
        built = [BiGRULayer(fwd=f, bwd=b) for f, b in zip(cells[::2], cells[1::2])]
        return cls(layers=built, dropout_p=dropout_p)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.fwd.tensors())
            out.extend(layer.bwd.tensors())
        return out


def bigru_forward(seq, stack, rng=None):
    """Encode (batch, T, D_in) into (batch, T, 2 * hidden) state sequences.

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
    return ad.concat(parts, axis=2)


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

    def tensors(self):
        return [self.fc1_weight, self.fc2_weight, self.fc2_bias]


def temporal_attention(states, p):
    """Collapse (batch, T, D) state sequences to one (batch, D) vector each.

    Scores are inner products of the states with the query ``h_last @ fc1``,
    which equal those of the ``fc1``-mapped states with the final state
    ``h_last``; softmax over time yields the weights of the context sum.
    """
    if states.data.ndim != 3:
        raise DimensionError("temporal_attention expects (batch, T, D)")
    batch, t_len, dim = states.data.shape
    if p.fc2_weight.data.shape[1] != 2 * dim:
        raise DimensionError("fc2 input extent must be 2 * D")
    h_last = states[:, t_len - 1, :]
    query = ad.reshape(ad.matmul(h_last, p.fc1_weight), (batch, dim, 1))
    scores = ad.matmul(states, query)
    weights = ad.softmax(scores, axis=1)
    context = ad.reshape(ad.matmul(ad.transpose(weights, (0, 2, 1)), states), (batch, dim))
    merged = ad.concat([context, h_last], axis=1)
    return ad.tanh(ad.add(ad.matmul(merged, ad.transpose(p.fc2_weight)), p.fc2_bias))
