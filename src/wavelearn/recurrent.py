"""Bidirectional recurrent sequence encoding with attention over time.

Gated recurrent cells follow the standard reset/update/candidate form.  Each
direction stores the four tensors its scan consumes: input weights ``w_ih``
(3H, D), hidden weights ``w_hh`` (3H, H) and biases ``b_ih``, ``b_hh`` (3H,).
Gate rows are stacked in r, z, n order: rows [0, H) belong to the reset gate,
[H, 2H) to the update gate and [2H, 3H) to the candidate.  A scan is one tape
node: it projects a direction's whole (batch, T, D) input in one matrix
product into a work array that sits beside the state, and runs the recurrence
from a zero state as one matmul and eight in-place ufuncs per step.  The tape
keeps only the state sequence, and the returned states are a view of it.  The
backward recomputes the projection and every gate from the states in bulk and
never forms a state Jacobian: its only sequential work is one elementwise
product and one vector-Jacobian matmul per step.  The stacked
encoder runs one scan forward and one backward over time per layer,
batch-major, and concatenates their states per step; dropout applies between
layers only, during training, from a seeded generator, as one node that keeps
a boolean mask.  The attention head scores hidden states against the final
state, softmax-normalizes over time, and squashes a linear map of
[context; final state] to produce one vector per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputTooShortError


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


def gru_scan(x, cell, reverse=False):
    """One recurrent direction over (batch, T, D_in) input, from a zero state.

    Returns the (batch, T, H) states, aligned with input time in either
    direction, as one tape node over ``x`` and the four tensors of ``cell``.
    The tape keeps only the (T + 1, B, H + 1) state array in scan order (from
    the end when ``reverse``); the returned states are a view of it, so
    neither direction copies them.  Its last column is a constant 1 that
    carries ``b_hh``'s candidate rows through the hidden matmul, and the input
    projection ``u`` folds in ``b_hh``'s r and z rows.  Both negate the r and z
    rows, so those gates are ``1 / (1 + exp(u + v))``.

    The forward writes ``u`` into a transient (T + 1, B, 4H + 1) work array
    whose rows are ``[h | 1 | u_rz | u_n]``.  Each step is one matmul of a row
    against a (4H + 1, 4H) weight whose identity blocks add ``u_rz`` and pass
    ``u_n`` through, giving ``[u_rz + v_rz | v_n | u_n]``, then eight in-place
    ufuncs: ``q = 1 + exp(.)`` is ``1 / [r, z]``, ``n = tanh(v_n / q_r + u_n)``
    and ``h = (h_prev - n) / q_z + n``, written into the next row.  The state
    columns are copied out and the work array is freed on return.

    The backward recomputes the projection from ``x`` and every gate from the
    stored states in bulk, and stacks the (T, B, 4, H) coefficients
    ``k = [k_r, k_z, k_n r, z]`` by which ``dh_s`` reaches the pre-activations
    of r and z, ``w_hn h`` and, directly, ``h_(s-1)``.  Each step writes
    ``k_s dh_s`` into a (B, 5H) row that already holds the output gradient
    ``g_(s-1)``, and one matmul of that row against ``[w_hh; I; I]`` gives
    ``dh_(s-1)``: one 2-D matmul for any batch, and no (T, B, H, H) Jacobian.
    The input-side and weight gradients then follow from the rows' first
    three blocks in a few bulk products.
    """
    xd, w_ih, w, b_ih, b_hh = (t.data for t in (x, *cell.tensors()))
    B, T, D = xd.shape
    H = w.shape[1]
    if D != w_ih.shape[1]:
        raise DimensionError(f"scan input extent {D} != {w_ih.shape[1]}")
    step = -1 if reverse else 1  # every (T, B, .) array below is in scan order

    def operands():
        """The (T, B, 3H) input projection and the (H + 1, 3H) weights of [h, 1]."""
        sign = np.repeat([-1.0, -1.0, 1.0], H)  # r and z rows negated
        bias = sign * (b_ih + np.concatenate([b_hh[: 2 * H], np.zeros(H)]))
        xt = np.ascontiguousarray(xd[:, ::step].transpose(1, 0, 2)).reshape(T * B, D)
        u = (xt @ (sign[:, None] * w_ih).T + bias).reshape(T, B, 3 * H)
        w_aug = np.empty((H + 1, 3 * H))
        w_aug[:H] = (sign[:, None] * w).T
        w_aug[H] = np.concatenate([np.zeros(2 * H), b_hh[2 * H :]])
        return u, w_aug

    u, w_aug = operands()
    work = np.empty((T + 1, B, 4 * H + 1))
    work[0, :, :H] = 0.0
    work[:, :, H] = 1.0
    work[:T, :, H + 1 :] = u
    # a row [h | 1 | u_rz | u_n] times w_work is [u_rz + v_rz | v_n | u_n]
    w_work = np.zeros((4 * H + 1, 4 * H))
    w_work[: H + 1, : 3 * H] = w_aug
    w_work[H + 1 : 3 * H + 1, : 2 * H] = np.eye(2 * H)
    w_work[3 * H + 1 :, 3 * H :] = np.eye(H)
    o = np.empty((B, 4 * H))
    q, n, u_n = o[:, : 2 * H], o[:, 2 * H : 3 * H], o[:, 3 * H :]
    q_r, q_z = q[:, :H], q[:, H:]
    with np.errstate(over="ignore"):  # a saturated gate's exp is inf, so r or z is 0
        for row, h_prev, h in zip(work[:-1], work[:-1, :, :H], work[1:, :, :H]):
            np.dot(row, w_work, o)
            np.exp(q, q)
            q += 1.0  # q = 1 / [r, z]
            np.divide(n, q_r, n)  # v_n r
            n += u_n
            np.tanh(n, n)
            np.subtract(h_prev, n, h)  # h = n + z (h_prev - n)
            np.divide(h, q_z, h)
            h += n
    hs = work[:, :, : H + 1].copy()
    out = hs[1:, :, :H].transpose(1, 0, 2)[:, ::step]

    def bwd(g):
        h_aug = hs[:-1].reshape(T * B, H + 1)
        h_prev = hs[:-1, :, :H]
        # the forward's gates, recomputed in bulk from the stored states
        u, w_aug = operands()
        v = (h_aug @ w_aug).reshape(T, B, 3 * H)
        with np.errstate(over="ignore"):
            rz = 1.0 / (1.0 + np.exp(u[..., : 2 * H] + v[..., : 2 * H]))
        r, z, vn = rz[..., :H], rz[..., H:], v[..., 2 * H :]
        n = np.tanh(vn * r + u[..., 2 * H :])
        k_n = (1.0 - z) * (1.0 - n * n)
        k_r = k_n * vn * r * (1.0 - r)
        k = np.stack([k_r, (h_prev - n) * z * (1.0 - z), k_n * r, z], axis=2)
        # dk rows are [k_s dh_s | g_(s-1)], so one matmul against [w_hh; I; I]
        # gives dh_(s-1); dh[0] only absorbs the first step's carry
        w_vjp = np.concatenate([w, np.eye(H), np.eye(H)])  # (5H, H)
        g_scan = g.transpose(1, 0, 2)[::step]
        dh = np.empty((T + 1, B, 1, H))
        dh[T, :, 0] = g_scan[T - 1]
        dk = np.empty((T, B, 5, H))
        dk[0, :, 4] = 0.0
        dk[1:, :, 4] = g_scan[:-1]
        dk_rows = dk.reshape(T, B, 5 * H)
        dh_rows = dh.reshape(T + 1, B, H)
        steps = zip(dh[:0:-1], k[::-1], dk[::-1, :, :4], dk_rows[::-1], dh_rows[-2::-1])
        for dh_s, k_s, dk_s, dk_row, dh_prev in steps:
            np.multiply(k_s, dh_s, dk_s)
            np.dot(dk_row, w_vjp, dh_prev)
        dh = dh_rows[1:]
        dv = dk_rows[..., : 3 * H]  # gradients of the pre-activations r, z and w_hn h
        dxp = dv.copy()
        dxp[..., 2 * H :] = dh * k_n
        dxm = dxp.transpose(1, 0, 2)[:, ::step].reshape(B * T, 3 * H)  # input order
        dx = (dxm @ w_ih).reshape(B, T, D)
        # the constant state column's weight gradient is b_hh's gradient
        dw_aug = dv.reshape(T * B, 3 * H).T @ h_aug
        return dx, dxm.T @ xd.reshape(B * T, D), dw_aug[:, :H], dxm.sum(axis=0), dw_aug[:, H]

    parents = (x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
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


def bigru_forward(seq, stack, training=False, seed=None):
    """Encode (batch, T, D_in) into (batch, T, 2 * hidden) state sequences.

    Inter-layer activations are dropped out with probability ``dropout_p``
    only when ``training``; masks come from ``seed`` (int or Generator), so a
    fixed seed reproduces the pass bit for bit.
    """
    if seq.data.ndim != 3:
        raise DimensionError("bigru_forward expects (batch, T, D_in)")
    if seq.data.shape[1] < 1:
        raise InputTooShortError("bigru_forward needs at least one time step")
    rng = None
    if training and stack.dropout_p > 0.0:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = seq
    for index, layer in enumerate(stack.layers):
        x = ad.concat([gru_scan(x, layer.fwd), gru_scan(x, layer.bwd, reverse=True)], axis=2)
        if rng is not None and index < len(stack.layers) - 1:
            x = ad.dropout(x, stack.dropout_p, rng)
    return x


@dataclass
class TemporalAttentionParams:
    fc1_weight: Tensor  # (D, D)
    fc1_bias: Tensor
    fc2_weight: Tensor  # (D, 2D), applied to [context; final state]
    fc2_bias: Tensor

    @classmethod
    def init(cls, dim, rng):
        k1 = 1.0 / np.sqrt(dim)
        k2 = 1.0 / np.sqrt(2 * dim)
        return cls(
            fc1_weight=ad.parameter(rng.uniform(-k1, k1, size=(dim, dim))),
            fc1_bias=ad.parameter(rng.uniform(-k1, k1, size=(dim,))),
            fc2_weight=ad.parameter(rng.uniform(-k2, k2, size=(dim, 2 * dim))),
            fc2_bias=ad.parameter(rng.uniform(-k2, k2, size=(dim,))),
        )

    def tensors(self):
        return [self.fc1_weight, self.fc1_bias, self.fc2_weight, self.fc2_bias]


def temporal_attention(states, p):
    """Collapse (batch, T, D) state sequences to one (batch, D) vector each.

    Scores are inner products of the linearly mapped states with the final
    state; softmax over time yields the weights of the context sum.
    """
    if states.data.ndim != 3:
        raise DimensionError("temporal_attention expects (batch, T, D)")
    batch, t_len, dim = states.data.shape
    if p.fc2_weight.data.shape[1] != 2 * dim:
        raise DimensionError("fc2 input extent must be 2 * D")
    h_last = states[:, t_len - 1, :]
    flat = ad.reshape(states, (batch * t_len, dim))
    mapped = ad.reshape(
        ad.add(ad.matmul(flat, ad.transpose(p.fc1_weight)), p.fc1_bias),
        (batch, t_len, dim),
    )
    scores = ad.matmul(mapped, ad.reshape(h_last, (batch, dim, 1)))
    weights = ad.softmax(scores, axis=1)
    context = ad.reshape(ad.matmul(ad.transpose(weights, (0, 2, 1)), states), (batch, dim))
    merged = ad.concat([context, h_last], axis=1)
    return ad.tanh(ad.add(ad.matmul(merged, ad.transpose(p.fc2_weight)), p.fc2_bias))
