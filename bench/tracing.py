"""Spans around calls into wavelearn's layers, recorded from outside the package.

A traced run replaces public functions at the module attribute their caller
looks them up by (``model.frontend_forward`` is the name ``Network.forward``
calls), records one span per call, and puts every original back when it
ends.  Nothing inside ``src/`` is edited.  In the ``training.backward``
wrapper each entry of the tape's ``backward_fns`` is wrapped too, so
backward time splits by node kind.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  Several attributes may share one span name;
# their times add up under it.
TARGETS = (
    ("wavelearn.model", "Network", "model.network_init"),
    ("wavelearn.model", "frontend_forward", "wavelet.frontend_forward"),
    ("wavelearn.features", "conv_block", "features.conv_block"),
    ("wavelearn.features", "spatial_attention", "features.spatial_attention"),
    ("wavelearn.model", "bigru_forward", "recurrent.bigru_forward"),
    ("wavelearn.recurrent", "gru_scan", "recurrent.gru_scan"),
    ("wavelearn.model", "temporal_attention", "recurrent.temporal_attention"),
    ("wavelearn.model", "fuse_bands", "fusion.head"),
    ("wavelearn.model", "channel_weighting", "fusion.head"),
    ("wavelearn.model", "classify", "fusion.head"),
    ("wavelearn.training", "focal_loss", "training.focal_loss"),
    # the L2 penalty gets its own tape and backward call once per step; the
    # objective wrapper marks that tape so its backward counts as optimizer time
    ("wavelearn.training", "regularized_objective", "training.optimizer"),
    ("wavelearn.training", "backward", "autodiff.backward"),
    ("wavelearn.training", "adam_step", "training.optimizer"),
    ("wavelearn.data", "load_wav", "data.load_wav"),
    ("wavelearn.data", "resample_to_16k", "data.resample"),
    ("wavelearn.checkpoint", "load_checkpoint", "checkpoint.load"),
)

# tape node kinds timed on their own in backward; every other kind is "other"
BACKWARD_KINDS = ("gru_scan", "conv1d", "instance_norm", "matmul", "concat")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.missing = []
        self._open = []
        self._l2_tape = None

    def enter(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self._open.pop()][2] = self.clock()

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    def wrap_objective(self, fn, name):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            self._l2_tape = getattr(out, "tape", None)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_backward(self, fn, name):
        def traced(root, *args, **kwargs):
            tape = getattr(root, "tape", None)
            if tape is not None and tape is self._l2_tape:
                self._l2_tape = None
                with self.span("training.optimizer"):
                    return fn(root, *args, **kwargs)
            kinds = getattr(tape, "kinds", None)
            fns = getattr(tape, "backward_fns", None)
            if kinds is None or fns is None:
                if tape is not None:
                    self.note_missing("wavelearn.autodiff.Tape.kinds/backward_fns")
                with self.span(name):
                    return fn(root, *args, **kwargs)
            self.counts["autodiff.nodes.total"] += len(kinds)
            self.counts.update(f"autodiff.nodes.{kind}" for kind in kinds)
            saved = list(fns)
            for i, (kind, node_fn) in enumerate(zip(kinds, saved)):
                if node_fn is not None:
                    group = kind if kind in BACKWARD_KINDS else "other"
                    fns[i] = self.wrap(node_fn, f"{name}.{group}")
            try:
                with self.span(name):
                    return fn(root, *args, **kwargs)
            finally:
                fns[:] = saved

        traced.__wrapped__ = fn
        return traced

    def note_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def stats(self):
        """SpanStats per span name; self time excludes time covered by children."""
        children = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += (end - start) - covered_length(start, end, children.get(index, ()))
        return out


_FACTORIES = {
    ("wavelearn.training", "backward"): Tracer.wrap_backward,
    ("wavelearn.training", "regularized_objective"): Tracer.wrap_objective,
}


@contextmanager
def installed(tracer, targets=TARGETS):
    """Wrap every target that exists; report the others; always restore."""
    saved = []
    try:
        for module_name, attr, span_name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                tracer.note_missing(f"{module_name}.{attr}")
                continue
            factory = _FACTORIES.get((module_name, attr), Tracer.wrap)
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, original, span_name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
