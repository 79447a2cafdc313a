"""Taped reference operations that the tests compare the package against.

The package computes the logistic and softplus inside fused nodes (``laht``,
``gru_scan``) and records neither as a node of its own.  The ops below are
those expressions as single tape nodes, and ``gru_cell_step`` is one GRU step
built from them, so the fused nodes can be checked against plain compositions.
``taped_temporal_attention`` is ``recurrent.temporal_attention`` composed of
engine nodes, the reference for the fused node.
"""

from __future__ import annotations

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tensor
from wavelearn.errors import DimensionError


def sigmoid(a):
    out = ad._logistic(a.data)
    return ad.record("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    # the derivative is the sigmoid
    x = a.data
    return ad.record("softplus", ad._softplus(x), (a,), lambda g: (g * ad._logistic(x),))


def _linear(x, w, b):
    return ad.add(ad.matmul(x, ad.transpose(w)), b)


def gru_cell_step(x_t, h_prev, p):
    """One recurrence step on (batch, D_in) input and (batch, D_h) state.

    ``p`` is a ``recurrent.GRUCellParams``.  The step reads each gate's rows
    of the fused weights separately, independent of ``recurrent.gru_scan``,
    and lives in ``tests/`` as the reference the scan is tested against.
    """
    if x_t.data.shape[1] != p.w_ih.data.shape[1]:
        raise DimensionError(
            f"cell input extent {x_t.data.shape[1]} != {p.w_ih.data.shape[1]}"
        )
    hidden = p.w_hh.data.shape[1]
    if h_prev.data.shape[1] != hidden:
        raise DimensionError(f"cell state extent {h_prev.data.shape[1]} != {hidden}")
    rows = [slice(i * hidden, (i + 1) * hidden) for i in range(3)]
    x_r, x_z, x_n = (_linear(x_t, p.w_ih[s], p.b_ih[s]) for s in rows)
    h_r, h_z, h_n = (_linear(h_prev, p.w_hh[s], p.b_hh[s]) for s in rows)
    r = sigmoid(ad.add(x_r, h_r))
    z = sigmoid(ad.add(x_z, h_z))
    n = ad.tanh(ad.add(x_n, ad.mul(r, h_n)))
    return ad.add(ad.mul(ad.sub(Tensor(1.0), z), n), ad.mul(z, h_prev))


def taped_temporal_attention(states, p):
    """``recurrent.temporal_attention`` of a (batch, T, D) Tensor, node by node.

    ``p`` is a ``recurrent.TemporalAttentionParams``.  The query is ``h_last
    @ fc1`` for the final state ``h_last``; softmax over time of the scores
    ``states @ query`` weights the context sum, and the output is
    ``tanh([context; h_last] @ fc2^T + b)``.
    """
    batch, t_len, dim = states.data.shape
    h_last = states[:, t_len - 1, :]
    query = ad.reshape(ad.matmul(h_last, p.fc1_weight), (batch, dim, 1))
    scores = ad.matmul(states, query)
    weights = ad.softmax(scores, axis=1)
    context = ad.reshape(ad.matmul(ad.transpose(weights, (0, 2, 1)), states), (batch, dim))
    merged = ad.concat([context, h_last], axis=1)
    return ad.tanh(ad.add(ad.matmul(merged, ad.transpose(p.fc2_weight)), p.fc2_bias))
