"""The benchmark's workloads: generated inputs, set-up, one operation, its check.

Every call into wavelearn goes through a module attribute (``model.Network``,
``training.train_model``, ``data.load_wav``...), so a traced run can wrap it
and so batching added later inside ``train_model``/``predict`` shows up here.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from wavelearn import autodiff, checkpoint, data, model, training
from wavelearn.config import TrainingSection

CLIPS_PER_BATCH = 16  # 4 synthetic classes x 4 clips: one logical batch
LOGSUMEXP_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": one optimizer step per operation; "predict": one clip
    model: model.ModelConfig = field(default_factory=model.ModelConfig)
    length_range: tuple = (8000, 12800)

    @property
    def clips_per_op(self):
        return CLIPS_PER_BATCH if self.kind == "train" else 1


# Why each workload exists is recorded in README.md and BENCHMARK.json: the
# default step is ~91% GRU scan, predict is the same scan with no tape or Adam,
# and the nogru step runs everything but the scan.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", "train"),
        Workload("predict_default", "predict"),
        Workload("train_nogru", "train",
                 model=model.apply_ablation(model.ModelConfig(), "allkernel+laht-nogru")),
    )
}


def batch_seed(seed, index):
    """Spec seed of the ``index``-th 16-clip batch of a run seeded ``seed``."""
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def make_batch(workload, seed, index):
    """Sixteen ragged synthetic clips, four per class, fixed by (seed, index)."""
    spec = data.default_synthetic_spec(
        levels=workload.model.frontend.levels,
        seed=batch_seed(seed, index),
        length_range=workload.length_range,
    )
    return data.generate_synthetic(spec, CLIPS_PER_BATCH // len(spec.classes))


def config_hash(cfg):
    blob = json.dumps(asdict(cfg), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def state_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def check_log_probs(log_probs, predicted, classes):
    """None when one predict row is well formed, else what is wrong with it."""
    log_probs = np.asarray(log_probs)
    if log_probs.shape != (1, classes):
        return f"log-probs shape {log_probs.shape} != (1, {classes})"
    if not np.all(np.isfinite(log_probs)):
        return "non-finite log-probs"
    row = log_probs[0]
    lse = row.max() + np.log(np.exp(row - row.max()).sum())
    if abs(lse) > LOGSUMEXP_TOL:
        return f"logsumexp {lse!r} != 0"
    if np.shape(predicted) != (1,) or predicted[0] != np.argmax(row):
        return f"predicted {predicted!r} is not the argmax"
    return None


def check_train_step(records, params, adam, steps_before):
    """None when one optimizer step left finite state, else what is wrong.

    ``train_model`` clears gradients after the step, so the gradient check is
    made on Adam's first moment: m_t = b1 m_(t-1) + (1 - b1) g is finite for
    every parameter exactly when every gradient was (m_(t-1) was checked on the
    previous step).
    """
    if len(records) != 1 or not np.isfinite(records[0].loss):
        return f"bad epoch records {records!r}"
    if adam.t != steps_before + 1:
        return f"expected one optimizer step, Adam counted {adam.t - steps_before}"
    for name, p in params.items():
        m, v = adam.m.get(name), adam.v.get(name)
        if m is None or v is None:
            return f"parameter {name!r} was not stepped"
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))
                and np.all(np.isfinite(p.data))):
            return f"non-finite gradient or value in {name!r}"
    return None


class Session:
    """One workload's inputs, network under test and checks, for one seed."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = int(seed)
        self.workdir = workdir
        self.net = None
        self.adam = None
        self.loss_cfg = None
        self.losses = []  # epoch-mean training loss of each operation
        self._batch = (None, None)
        self._checkpoint = workdir / f"{workload.name}-{self.seed}.ckpt"

    def write_checkpoint(self):
        """Untimed, predict only: the artifact `wavelearn predict` would read."""
        net = model.Network(self.workload.model, seed=self.seed)
        checkpoint.save_checkpoint(self._checkpoint, net.state(),
                                   {"classes": self.class_names()})

    def class_names(self):
        return data.default_synthetic_spec(self.workload.model.frontend.levels).label_names()

    def batch(self, index):
        if self._batch[0] != index:
            clips = make_batch(self.workload, self.seed, index)
            if self.workload.kind == "predict":
                for j, clip in enumerate(clips):
                    data.write_wav_pcm16(self._wav_path(index, j), clip.samples,
                                         clip.sample_rate)
            self._batch = (index, clips)
        return self._batch[1]

    def _wav_path(self, index, j):
        return self.workdir / f"{self.workload.name}-{self.seed}-{index}-{j}.wav"

    def op_input(self, i):
        """Untimed: what operation ``i`` consumes."""
        if self.workload.kind == "train":
            return i, self.batch(i)
        index, j = divmod(i, CLIPS_PER_BATCH)
        return i, self.batch(index)[j], self._wav_path(index, j)

    def setup(self):
        """Timed: the program's work before its first operation."""
        cfg = self.workload.model
        if self.workload.kind == "train":
            self.net = model.Network(cfg, seed=self.seed)
            ts = TrainingSection()
            self.adam = training.AdamState(lr=ts.lr, beta1=ts.beta1, beta2=ts.beta2,
                                           eps=ts.eps)
            self.loss_cfg = training.LossConfig(gamma=ts.gamma, lam=ts.lam)
        else:
            state, meta = checkpoint.load_checkpoint(self._checkpoint)
            net = model.Network(cfg, seed=self.seed)
            net.load_state(state)
            if meta.get("classes") != self.class_names():
                raise RuntimeError(f"checkpoint round trip lost the class names: {meta!r}")
            self.net = net

    def run(self, inp):
        """Timed: one operation."""
        if self.workload.kind == "train":
            i, clips = inp
            steps_before = self.adam.t
            records = training.train_model(
                self.net, [c.samples for c in clips], [c.label for c in clips],
                self.loss_cfg, self.adam, epochs=1, seed=batch_seed(self.seed, i),
                batch_size=CLIPS_PER_BATCH,
            )
            self.losses.extend(r.loss for r in records)
            return records, steps_before
        _, _, path = inp
        clip = data.resample_to_16k(data.load_wav(path))
        return training.predict(self.net, [clip.samples], workers=1)

    def check(self, inp, out):
        """Untimed: (error or None, fingerprint compared across traced runs)."""
        if self.workload.kind == "train":
            records, steps_before = out
            params = self.net.parameters()
            error = check_train_step(records, params, self.adam, steps_before)
            loss = np.float64(records[0].loss).tobytes() if records else b""
            return error, loss + state_digest(params).encode()
        predicted, log_probs = out
        error = check_log_probs(log_probs, predicted, self.workload.model.classes)
        return error, np.asarray(log_probs).tobytes()

    def warm_up(self):
        """Untimed: one forward pass on a short prefix of the first clip, so that
        first-call costs are paid before anything is timed."""
        clip = self.batch(0)[0]
        net = model.Network(self.workload.model, seed=self.seed)
        training.predict(net, [clip.samples[: self.workload.model.frontend.min_input_length]])

    def tape_node_counts(self):
        """Untimed: per-kind nodes of the first clip's forward and loss tape.

        Training adds one node to this, the 1/batch scaling of the loss.  The
        count depends a little on clip length: odd-length levels add nodes.
        """
        clip = self.batch(0)[0]
        net = model.Network(self.workload.model, seed=self.seed)
        with autodiff.Tape() as tape:
            log_probs = net.forward(clip.samples, training=True,
                                    dropout_seed=np.random.default_rng(0))
            training.focal_loss(log_probs, [clip.label], training.LossConfig())
        return dict(sorted(Counter(tape.kinds).items()))
