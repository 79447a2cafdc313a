"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every differentiable operation of one forward pass in
execution order (which is a topological order by construction).  ``backward``
walks the records in reverse and accumulates gradients into the
``requires_grad`` leaves.  There is one tape per forward pass; parameters are
registered as leaves the first time the pass touches them.  ``backward`` runs
once per tape, inside its ``with`` block, and releases each closure as soon as
it has run; gradients accumulate across tapes.  Leaving the block drops the
closures left, which would otherwise keep the pass's tensors in a reference
cycle until a full garbage collection.  Freed arrays stay mapped under the
package's allocator policy (see ``wavelearn/__init__.py``), so the next pass
reuses them without page faults.  Tapes are confined to a single thread;
running with no active tape computes plain forward values and records nothing.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DimensionError, InputTooShortError

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tape:
    """Ordered record of one forward pass, usable as a context manager."""

    def __init__(self):
        self.kinds = []
        self.parent_ids = []
        self.backward_fns = []
        self.leaves = []  # (node_id, Tensor) pairs for gradient write-back
        self._leaf_ids = {}
        self.spent = False  # set by the one backward this tape allows

    def __enter__(self):
        self._outer = _active_tape()
        _STATE.tape = self
        return self

    def __exit__(self, *exc):
        _STATE.tape = self._outer
        self.backward_fns.clear()
        return False

    def _leaf_node(self, tensor):
        nid = self._leaf_ids.get(id(tensor))
        if nid is None:
            nid = self._append("leaf", (), None)
            self._leaf_ids[id(tensor)] = nid
            self.leaves.append((nid, tensor))
        return nid

    def _append(self, kind, parent_ids, backward_fn):
        nid = len(self.kinds)
        self.kinds.append(kind)
        self.parent_ids.append(parent_ids)
        self.backward_fns.append(backward_fn)
        return nid


class Tensor:
    """Dense float64 array that can participate in differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node_id = None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, index):
        return take(self, index)


def _wrap(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data):
    return Tensor(data, requires_grad=True)


def record(kind, out_data, parents, backward_fn):
    """Create the output tensor of an operation, recording it when needed.

    ``backward_fn(grad) -> tuple`` must return one gradient array (or None)
    per parent, in order.  It must not write into ``grad``, which other
    nodes may hold too, and it may return views of ``grad`` or of its own
    arrays: ``backward`` never writes into a returned gradient.  It should
    close over the arrays and shapes it reads, not over input tensors, which
    the tape would then keep alive after the forward pass.  Custom fused
    primitives in other modules use this hook too.
    """
    tape = _active_tape()
    out = Tensor(out_data)
    if tape is None:
        return out
    pids = []
    tracked = False
    for p in parents:
        if p.node_id is not None and p.tape is tape:
            pids.append(p.node_id)
            tracked = True
        elif p.requires_grad:
            pids.append(tape._leaf_node(p))
            tracked = True
        else:
            pids.append(-1)
    if not tracked:
        return out
    out.node_id = tape._append(kind, tuple(pids), backward_fn)
    out.tape = tape
    out.requires_grad = True
    return out


def backward(root):
    """Accumulate d(root)/d(leaf) into every requires_grad leaf of the tape.

    Each node's closure is released once it has run, so a second call on the
    same tape is a ContractError.  Calls on successive tapes add into leaf
    grads, which is what gradient accumulation over a logical batch relies on.
    """
    if not isinstance(root, Tensor) or root.tape is None or root.tape is not _active_tape():
        raise ContractError("backward root must be produced on the active tape")
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    tape = root.tape
    if tape.spent:
        raise ContractError("this tape was already back-propagated; record a new one")
    tape.spent = True
    grads = [None] * (root.node_id + 1)
    grads[root.node_id] = np.ones_like(root.data)
    for nid in range(root.node_id, -1, -1):
        g = grads[nid]
        if g is None or tape.backward_fns[nid] is None:
            continue
        parent_grads = tape.backward_fns[nid](g)
        tape.backward_fns[nid] = None  # frees what only this closure holds
        for pid, pg in zip(tape.parent_ids[nid], parent_grads):
            if pid < 0 or pg is None:
                continue
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
        grads[nid] = None
    for nid, tensor in tape.leaves:
        if nid <= root.node_id and grads[nid] is not None:
            if tensor.grad is None:
                tensor.grad = grads[nid]
            else:
                tensor.grad = tensor.grad + grads[nid]


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# pointwise operations


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "add")
    sa, sb = a.data.shape, b.data.shape
    return record(
        "add", a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))
    )


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "sub")
    sa, sb = a.data.shape, b.data.shape
    return record(
        "sub", a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))
    )


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "mul")
    return record(
        "mul",
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def neg(a):
    return record("neg", -a.data, (a,), lambda g: (-g,))


def exp(a):
    out = np.exp(a.data)
    return record("exp", out, (a,), lambda g: (g * out,))


def _logistic(x):
    # e = exp(-|x|) keeping a NaN's sign; each sign's form cannot overflow
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def leaky_relu(a):
    """a where a >= 0, else 0.01 a."""
    mask = a.data >= 0
    out = np.where(mask, a.data, a.data * 0.01)
    return record("leaky_relu", out, (a,), lambda g: (np.where(mask, g, g * 0.01),))


def _softplus(x):
    # log(1 + e^x) in an overflow-safe form
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def pow_const(a, exponent):
    """Elementwise a**c for a constant real exponent."""
    c = float(exponent)
    out = a.data**c

    def bwd(g):
        if c == 0.0:
            return (np.zeros_like(a.data),)
        return (g * c * a.data ** (c - 1.0),)

    return record("pow", out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and reductions


def transpose(a, axes=None):
    order = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(order))
    return record(
        "transpose",
        np.transpose(a.data, order),
        (a,),
        lambda g: (np.transpose(g, inverse),),
    )


def reshape(a, shape):
    old = a.data.shape
    return record("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def flip(a, axis):
    return record("flip", np.flip(a.data, axis=axis), (a,), lambda g: (np.flip(g, axis=axis),))


def take(a, index):
    """Basic (non-repeating) indexing with ints and slices."""
    out = a.data[index]
    shape, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[index] = g
        return (full,)

    return record("take", out, (a,), bwd)


def concat(tensors, axis):
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer[axis] = slice(start, stop)
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return record("concat", out, tuple(tensors), bwd)


def stack(tensors, axis):
    tensors = [_wrap(t) for t in tensors]
    first = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != first:
            raise DimensionError(f"stack extents differ: {t.data.shape} vs {first}")
    out = np.stack([t.data for t in tensors], axis=axis)
    n = len(tensors)
    lead = (slice(None),) * (axis % out.ndim)

    def bwd(g):  # basic-index views of g, one per input
        return tuple(g[lead + (i,)] for i in range(n))

    return record("stack", out, tuple(tensors), bwd)


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    normalized = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise DimensionError(f"axis {ax} invalid for {ndim}-d value")
        normalized.append(ax % ndim)
    return tuple(normalized)


def reduce_sum(a, axis=None, keepdims=False):
    axes = _normalize_axis(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    return record("sum", out, (a,), bwd)


def reduce_mean(a, axis=None, keepdims=False):
    axes = _normalize_axis(axis, a.data.ndim)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size if axes is None else int(np.prod([shape[ax] for ax in axes]))

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape) / count,)

    return record("mean", out, (a,), bwd)


def softmax(a, axis):
    _normalize_axis(axis, a.data.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return record("softmax", out, (a,), bwd)


def log_softmax(a, axis):
    _normalize_axis(axis, a.data.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return record("log_softmax", out, (a,), bwd)


# ---------------------------------------------------------------------------
# convolution and normalization


def _conv_geometry(width, taps, stride, dilation, padding):
    span = dilation * (taps - 1) + 1
    if padding == "circular":
        if width < span:
            raise InputTooShortError(
                f"circular conv needs width >= {span}, got {width}"
            )
        return -(-width // stride), 0
    pad = int(padding)
    padded = width + 2 * pad
    out_w = (padded - span) // stride + 1
    if out_w < 1:
        raise InputTooShortError(
            f"conv input too short: padded width {padded} < kernel span {span}"
        )
    return out_w, pad


def conv1d(x, w, b=None, stride=1, dilation=1, padding=0):
    """Cross-correlation along the last axis.

    ``x``: (batch, C, W), ``w``: (K, C, S), optional ``b``: (K,).  ``padding``
    is an integer count of zeros added to both ends, or ``"circular"`` for
    periodic indexing (output width ceil(W / stride)).  The windows are a
    (batch, C, S, out_w) strided view of the padded or circularly extended
    input; when no tap reads past the input (no padding, no wrap) they view
    the input itself and no padded copy is made.  The im2col matrix is one
    copy of that view into a contiguous (batch, C * S, out_w) array, so the
    copy's inner loop runs along the output width.  The tape keeps only
    ``xp`` (``x.data`` itself when no copy was made), and the backward
    rebuilds the matrix from it with the same copy.  The output
    ``w @ mat`` is a C-contiguous (batch, K, out_w).

    The backward's weight gradient is one 2-d matmul over (K, batch out_w).
    Tap s adds its input gradient at padded positions dilation s + stride q,
    which is a contiguous run of phase (dilation s) mod stride, so each tap
    adds into a contiguous (batch, C, n) array of its phase, and the phases
    are interleaved into the padded width once; a phase that no tap writes
    (every tap of a stride-2, dilation-2 block is on phase 0) is written as
    zeros there.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError("conv1d expects x (batch, C, W) and w (K, C, S)")
    if x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(
            f"conv1d channel mismatch: input {x.data.shape[1]}, weight {w.data.shape[1]}"
        )
    if stride < 1 or dilation < 1:
        raise DimensionError("conv1d stride and dilation must be positive")
    batch, chans, width = x.data.shape
    k_out, _, taps = w.data.shape
    out_w, pad = _conv_geometry(width, taps, stride, dilation, padding)
    span = dilation * (taps - 1) + 1
    # every tap's reads, unwrapped: circular indices run past the width by
    # less than one span, and width >= span, so one wrapped copy covers them
    full = max((out_w - 1) * stride + span, width + 2 * pad)
    if full == width:
        xp = np.ascontiguousarray(x.data)
    else:
        xp = np.empty((batch, chans, full))
        xp[:, :, :pad] = 0.0
        xp[:, :, pad : pad + width] = x.data
        xp[:, :, pad + width :] = x.data[:, :, : full - width] if padding == "circular" else 0.0

    def im2col():
        sb, sc, sw = xp.strides
        windows = np.ndarray((batch, chans, taps, out_w), xp.dtype, xp, 0,
                             (sb, sc, sw * dilation, sw * stride))
        return np.ascontiguousarray(windows).reshape(batch, chans * taps, out_w)

    wmat = w.data.reshape(k_out, chans * taps)
    out = wmat @ im2col()
    if b is not None:
        out += b.data[:, None]

    def bwd(g):
        mat = im2col()
        cols = batch * out_w
        gw = g.transpose(1, 0, 2).reshape(k_out, cols) @ mat.transpose(1, 0, 2).reshape(-1, cols).T
        gcols = (wmat.T @ g).reshape(batch, chans, taps, out_w)
        phase_w = -(-full // stride)
        phases = {}  # only the phases some tap writes; tap 0 writes phase 0
        for s in range(taps):
            start, phase = divmod(dilation * s, stride)
            if phase not in phases:
                phases[phase] = np.zeros((batch, chans, phase_w))
            phases[phase][:, :, start : start + out_w] += gcols[:, :, s]
        gxp = phases[0]  # at stride 1 the one phase is the padded order
        if stride > 1:
            gxp = np.empty((batch, chans, phase_w * stride))
            for phase in range(stride):
                gxp[:, :, phase::stride] = phases.get(phase, 0.0)
        gx = gxp[:, :, pad : pad + width]
        if padding == "circular":
            gx[:, :, : full - width] += gxp[:, :, width:full]
        gw = gw.reshape(k_out, chans, taps)
        if b is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2)))

    parents = (x, w) if b is None else (x, w, b)
    return record("conv1d", out, parents, bwd)

