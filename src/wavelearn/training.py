"""Optimization and evaluation pipeline.

Focal loss with L2 regularization minimized by Adam, per-utterance passes
with gradient accumulation over a logical batch, a stratified
train/validation/test split, and confusion-matrix metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .errors import ContractError, DatasetError, DimensionError, LabelError, NumericalError


@dataclass
class LossConfig:
    gamma: float = 2.0
    class_alpha: np.ndarray | None = None  # None: every class weighs 1
    lam: float = 1e-4

    def alphas(self, n_classes):
        if self.class_alpha is None:
            return np.ones(n_classes)
        alpha = np.asarray(self.class_alpha, dtype=np.float64)
        if alpha.shape != (n_classes,):
            raise LabelError(f"class_alpha must have {n_classes} entries")
        return alpha


def inverse_frequency_alphas(labels, n_classes):
    """Per-class balancing factors proportional to 1/frequency, mean 1."""
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DatasetError(f"class {missing} has no samples")
    inv = 1.0 / counts
    return inv * (n_classes / inv.sum())


def focal_loss(log_probs, targets, cfg):
    """Mean over the batch of -alpha_t (1 - p_t)^gamma log(p_t).

    ``log_probs`` is (batch, classes) of log probabilities; ``targets`` are
    class indices.  With gamma 0 and unit alphas this is exactly the mean
    negative log likelihood.
    """
    batch, n_classes = log_probs.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch,):
        raise LabelError(f"expected {batch} targets, got {targets.shape}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise LabelError(
            f"target out of range for {n_classes} classes: {targets.tolist()}"
        )
    onehot = np.zeros((batch, n_classes))
    onehot[np.arange(batch), targets] = 1.0
    lp_t = ad.reduce_sum(ad.mul(log_probs, Tensor(onehot)), axis=1)
    p_t = ad.exp(lp_t)
    focus = ad.pow_const(ad.sub(Tensor(1.0), p_t), cfg.gamma)
    alpha_t = Tensor(cfg.alphas(n_classes)[targets])
    return ad.neg(ad.reduce_mean(ad.mul(alpha_t, ad.mul(focus, lp_t))))


def regularized_objective(task_loss, params, lam):
    """task_loss + lam * sum of squared entries over all parameters."""
    if lam < 0:
        raise ContractError("lambda must be nonnegative")
    if lam == 0 or not params:
        return task_loss
    penalty = None
    for p in params:
        term = ad.reduce_sum(ad.mul(p, p))
        penalty = term if penalty is None else ad.add(penalty, term)
    return ad.add(task_loss, ad.mul(Tensor(float(lam)), penalty))


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state):
    """One bias-corrected Adam update over {name: Tensor} parameters."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    scale = state.lr * np.sqrt(1.0 - b2**state.t) / (1.0 - b1**state.t)
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - scale * m / (np.sqrt(v) + state.eps)


def zero_grads(params):
    for p in params.values():
        p.grad = None


def _quota(counts, frac):
    """Per-class shares of round(frac * total), by largest remainder."""
    n = int(round(frac * counts.sum()))
    quota = np.floor(counts * frac).astype(np.int64)
    remainders = counts * frac - quota
    for c in np.argsort(-remainders)[: n - quota.sum()]:
        quota[c] += 1
    return quota


def stratified_split(labels, seed, test_frac=0.1):
    """Sorted (train, validation, test) index arrays, stratified by class.

    The test split takes ``test_frac`` of every class, then validation takes
    ``test_frac`` of what is left; each is within one sample of its
    proportional share per class.  A class left without a training clip is a
    dataset error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise DatasetError("cannot split an empty dataset")
    n_classes = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DatasetError(f"class {missing} has no samples")
    rng = np.random.default_rng(seed)
    per_class = [rng.permutation(np.flatnonzero(labels == c)) for c in range(n_classes)]
    n_test = _quota(counts, test_frac)
    n_val = _quota(counts - n_test, test_frac)
    no_train = np.flatnonzero(n_test + n_val == counts)
    if no_train.size:
        raise DatasetError(
            f"class {no_train[0]} has no sample left for training after the test "
            "and validation splits"
        )
    cuts = [np.split(idx, [t, t + v]) for idx, t, v in zip(per_class, n_test, n_val)]
    test, val, train = (np.sort(np.concatenate(part)) for part in zip(*cuts))
    return train, val, test


def _safe_div(num, den):
    safe = np.where(den > 0, den, 1.0)
    return np.where(den > 0, num / safe, 0.0)


def metrics_from_pairs(true_labels, predicted, n_classes):
    """Confusion matrix and derived scores, as ``metrics.json`` holds them.

    ``confusion`` has a row per true class and a column per predicted class;
    ``per_class`` holds precision, recall, f1 and support lists, ``accuracy``
    the share predicted right, and ``macro`` and ``weighted`` the averages of
    precision, recall and f1.  Zero denominators score 0.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.size == 0:
        raise DatasetError("cannot compute metrics on an empty subset")
    confusion = np.bincount(
        true_labels * n_classes + predicted, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    tp = np.diag(confusion).astype(np.float64)
    support = confusion.sum(axis=1).astype(np.float64)
    predicted_count = confusion.sum(axis=0).astype(np.float64)
    precision = _safe_div(tp, predicted_count)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    total = float(true_labels.size)
    return {
        "confusion": confusion.tolist(),
        "per_class": {
            "precision": precision.tolist(),
            "recall": recall.tolist(),
            "f1": f1.tolist(),
            "support": confusion.sum(axis=1).tolist(),
        },
        "accuracy": float(tp.sum() / total),
        "macro": {
            "precision": float(precision.mean()),
            "recall": float(recall.mean()),
            "f1": float(f1.mean()),
        },
        "weighted": {
            "precision": float((precision * support).sum() / total),
            "recall": float((recall * support).sum() / total),
            "f1": float((f1 * support).sum() / total),
        },
    }


def _check_finite(value, params, context):
    if np.isfinite(value):
        return
    offenders = [
        name
        for name, p in params.items()
        if not np.all(np.isfinite(p.data))
        or (p.grad is not None and not np.all(np.isfinite(p.grad)))
    ]
    detail = f"; non-finite parameter blocks: {offenders}" if offenders else ""
    raise NumericalError(f"non-finite loss during {context}{detail}")


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float


def train_model(model, clips, labels, loss_cfg, adam, epochs, seed,
                batch_size=16, val_clips=None, val_labels=None):
    """Per-utterance training with dropout and gradient accumulation.

    ``model`` follows the interface of ``model.Network`` (``forward`` and
    ``parameters``).  Every clip is checked as ``predict`` checks it before
    the first epoch.  Runs all ``epochs``, returns per-epoch records and
    mutates the model parameters in place.
    """
    params = model.parameters()
    n = len(clips)
    if n == 0:
        raise DatasetError("training set is empty")
    clips = [_checked_clip(clip, index) for index, clip in enumerate(clips)]
    order_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    records = []
    for epoch in range(1, epochs + 1):
        order = order_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            for idx in batch:
                drop_seed = np.random.SeedSequence((seed, epoch, int(idx)))
                with Tape():
                    log_probs = model.forward(
                        clips[idx], training=True,
                        dropout_seed=np.random.default_rng(drop_seed),
                    )
                    loss = focal_loss(log_probs, [labels[idx]], loss_cfg)
                    backward(ad.mul(Tensor(1.0 / len(batch)), loss))
                value = float(loss.data)
                _check_finite(value, params, f"epoch {epoch}")
                total_loss += value
                correct += int(np.argmax(log_probs.data[0]) == labels[idx])
            _apply_l2_and_step(params, loss_cfg.lam, adam)
        records.append(
            EpochRecord(epoch, "train", total_loss / n, correct / n)
        )
        if val_clips:
            predicted, log_probs = predict(model, val_clips)
            val_loss = float(focal_loss(Tensor(log_probs), val_labels, loss_cfg).data)
            val_acc = float(np.mean(predicted == np.asarray(val_labels)))
            records.append(EpochRecord(epoch, "val", val_loss, val_acc))
    return records


def _apply_l2_and_step(params, lam, adam):
    if lam > 0:
        # the gradient of lam * sum(w^2), bitwise what regularized_objective's
        # tape gives: its lam * w + lam * w is exactly (2 * lam) * w
        for p in params.values():
            p.grad = p.grad + 2.0 * lam * p.data
    adam_step(params, adam)
    zero_grads(params)


def _checked_clip(clip, index):
    """``clip`` as a 1-D array of finite real samples, else a typed error naming it."""
    try:
        samples = np.asarray(clip)
    except ValueError as exc:  # a ragged nested sequence
        raise ContractError(f"clip {index} is not an array of samples: {exc}") from None
    if samples.dtype.kind not in "iuf":
        raise ContractError(f"clip {index} holds {samples.dtype} values, not real samples")
    if samples.ndim != 1:
        raise DimensionError(f"clip {index} has shape {samples.shape}, not (samples,)")
    if not np.isfinite(samples).all():
        raise NumericalError(f"clip {index} holds a non-finite sample")
    return samples


def predict(model, clips, workers=1):
    """Argmax class and (clips, classes) log probabilities, one forward per clip in order.

    Every clip is checked before the first forward: an empty list is a
    DatasetError, a clip of other than real numbers a ContractError, one that
    is not 1-D a DimensionError and one with a NaN or inf a NumericalError.
    The package runs on one thread.  ``workers`` is kept only for callers
    that still pass ``workers=1``; any other value is a ContractError.
    """
    if workers != 1:
        raise ContractError(f"predict runs on one thread: workers must be 1, got {workers}")
    if len(clips) == 0:
        raise DatasetError("cannot predict an empty list of clips")
    checked = [_checked_clip(clip, index) for index, clip in enumerate(clips)]
    log_probs = np.stack([model.forward(clip).data[0] for clip in checked])
    return np.argmax(log_probs, axis=1), log_probs


def evaluate(model, clips, labels, n_classes):
    """``metrics_from_pairs`` of ``predict`` on a subset; empty subsets are dataset errors."""
    if len(clips) == 0:
        raise DatasetError("cannot evaluate an empty subset")
    predicted, _ = predict(model, clips)
    return metrics_from_pairs(labels, predicted, n_classes)
