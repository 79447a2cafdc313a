import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.errors import (
    ContractError,
    DatasetError,
    DimensionError,
    LabelError,
    NumericalError,
)
from wavelearn.model import ModelConfig, Network
from wavelearn.training import (
    AdamState,
    LossConfig,
    adam_step,
    focal_loss,
    inverse_frequency_alphas,
    metrics_from_pairs,
    predict,
    regularized_objective,
    stratified_split,
    train_model,
    zero_grads,
)
from wavelearn.wavelet import FrontEndConfig

import reference
from gradcheck import check_gradients


def _logp(probs):
    return Tensor(np.log(np.asarray(probs, dtype=np.float64)))


def test_focal_reduces_to_cross_entropy():
    cfg = LossConfig(gamma=0.0, class_alpha=np.ones(2), lam=0.0)
    loss = focal_loss(_logp([[0.5, 0.5]]), [0], cfg)
    assert abs(float(loss.data) - 0.6931) < 1e-4


def test_focal_reference_value():
    cfg = LossConfig(gamma=2.0, class_alpha=np.ones(2), lam=0.0)
    loss = focal_loss(_logp([[0.9, 0.1]]), [0], cfg)
    assert abs(float(loss.data) - 0.0010536) < 1e-7


def test_focal_vanishes_at_certainty():
    for gamma in (0.0, 1.0, 2.0, 5.0):
        cfg = LossConfig(gamma=gamma, class_alpha=np.ones(2), lam=0.0)
        loss = focal_loss(_logp([[1.0 - 1e-12, 1e-12]]), [0], cfg)
        assert float(loss.data) < 1e-10


def test_focal_out_of_range_target():
    cfg = LossConfig(gamma=2.0, class_alpha=np.ones(2), lam=0.0)
    with pytest.raises(LabelError):
        focal_loss(_logp([[0.5, 0.5]]), [2], cfg)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_focal_gamma_zero_equals_nll(seed):
    rng = np.random.default_rng(seed)
    batch, classes = 5, 4
    logits = rng.normal(size=(batch, classes)) * 2
    targets = rng.integers(0, classes, size=batch)
    logp = ad.log_softmax(Tensor(logits), axis=1)
    cfg = LossConfig(gamma=0.0, class_alpha=np.ones(classes), lam=0.0)
    focal = float(focal_loss(logp, targets, cfg).data)
    nll = -np.mean(logp.data[np.arange(batch), targets])
    assert abs(focal - nll) < 1e-12


def test_focal_monotone_in_confidence():
    cfg = LossConfig(gamma=2.0, class_alpha=np.ones(2), lam=0.0)
    losses = [
        float(focal_loss(_logp([[p, 1 - p]]), [0], cfg).data)
        for p in (0.6, 0.7, 0.8, 0.9)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_regularized_objective():
    task = Tensor(1.5)
    assert regularized_objective(task, [Tensor(np.ones(3))], 0.0) is task
    out = regularized_objective(task, [Tensor(np.array([3.0]))], 1.0)
    assert float(out.data) == pytest.approx(1.5 + 9.0)


def test_regularization_gradient_is_2_lambda_w():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    lam = 0.37

    def build(t):
        return regularized_objective(Tensor(0.0), [t[0]], lam)

    assert check_gradients(build, [w]) < 1e-4
    leaf = Tensor(w, requires_grad=True)
    with Tape():
        backward(regularized_objective(Tensor(0.0), [leaf], lam))
    assert_allclose(leaf.grad, 2 * lam * w, atol=1e-12)


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    state = AdamState(lr=0.1)
    adam_step({"p": p}, state)
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adam_zero_gradient_keeps_parameter():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    state = AdamState(lr=0.1)
    state.m["p"] = np.array([0.5])
    state.v["p"] = np.array([0.25])
    before = p.data.copy()
    adam_step({"p": p}, state)
    # moments decay but with zero gradient the step uses only stale momentum
    assert state.m["p"][0] == pytest.approx(0.45)
    assert state.v["p"][0] == pytest.approx(0.25 * 0.999)
    assert not np.array_equal(p.data, before)  # momentum still moves it


def test_adam_missing_grad_contract():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        adam_step({"p": p}, AdamState())


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState(lr=0.01)
        for _ in range(50):
            p.grad = rng.normal(size=2)
            adam_step({"p": p}, state)
            zero_grads({"p": p})
        return p.data.copy()

    assert np.array_equal(run(), run())


class _SoftmaxRegression:
    """A linear classifier with the ``Network`` interface ``train_model`` uses."""

    def __init__(self):
        w = np.random.default_rng(0).normal(size=(4, 3))
        self.w = Tensor(w, requires_grad=True)

    def parameters(self):
        return {"w": self.w}

    def forward(self, samples, training=False, dropout_seed=None):
        x = Tensor(np.asarray(samples, dtype=np.float64).reshape(1, -1))
        return ad.log_softmax(reference.matmul(x, self.w), axis=1)


def test_train_model_steps_once_per_logical_batch():
    clips = list(np.random.default_rng(3).normal(size=(5, 4)))
    adam = AdamState()
    train_model(_SoftmaxRegression(), clips, [0, 1, 2, 0, 1], LossConfig(), adam,
                epochs=2, seed=0, batch_size=2)
    assert adam.t == 2 * 3  # batches of 2, 2 and 1 in each epoch


def test_train_model_weight_decay_equals_the_regularized_objective_gradient():
    clip, label, lam = np.random.default_rng(4).normal(size=4), 2, 0.3
    model, reference = _SoftmaxRegression(), _SoftmaxRegression()
    train_model(model, [clip], [label], LossConfig(lam=lam), AdamState(lr=0.1),
                epochs=1, seed=0)
    params = reference.parameters()
    with Tape():
        backward(focal_loss(reference.forward(clip), [label], LossConfig(lam=lam)))
    with Tape():
        backward(regularized_objective(Tensor(0.0), list(params.values()), lam))
    adam_step(params, AdamState(lr=0.1))
    assert np.array_equal(model.w.data, reference.w.data)


@pytest.mark.parametrize("lam", [0.0, 1e-4])
def test_train_model_names_a_parameter_without_a_gradient_at_any_lam(lam):
    model = _SoftmaxRegression()
    unused = Tensor(np.ones(2), requires_grad=True)
    model.parameters = lambda: {"w": model.w, "a": unused}
    with pytest.raises(ContractError, match="parameter 'a' has no gradient"):
        train_model(model, [np.ones(4)], [0], LossConfig(lam=lam), AdamState(), epochs=1, seed=0)


def test_split_example_counts():
    labels = np.asarray([0] * 25 + [1] * 25 + [2] * 25 + [3] * 25)
    train, val, test = stratified_split(labels, seed=1)
    # the clips every earlier checkpoint was tested on; they must not move
    assert test.tolist() == [1, 7, 20, 38, 40, 44, 68, 72, 83, 95]
    assert sorted(np.bincount(labels[test], minlength=4).tolist()) == [2, 2, 3, 3]
    assert len(val) == 9
    val_counts = np.bincount(labels[val], minlength=4)
    assert val_counts.max() - val_counts.min() <= 1
    assert sorted(np.concatenate([train, val, test]).tolist()) == list(range(100))


def test_split_single_class():
    train, val, test = stratified_split([0] * 40, seed=2)
    assert (len(train), len(val), len(test)) == (32, 4, 4)


def test_split_determinism():
    labels = ([0] * 30 + [1] * 20 + [2] * 17)
    a = stratified_split(labels, seed=9)
    b = stratified_split(labels, seed=9)
    assert a[2].tolist() == [9, 14, 18, 30, 45, 54, 64]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_empty_class():
    with pytest.raises(DatasetError):
        stratified_split([0, 0, 2, 2], seed=0)


def test_split_keeps_a_lone_clip_for_training():
    # the 10-fold plan left this with no training clip at all
    train, val, test = stratified_split([0] * 40 + [1], seed=0)
    assert 40 in train
    assert (len(train), len(val), len(test)) == (33, 4, 4)


def test_split_names_an_empty_test_split():
    with pytest.raises(DatasetError, match="a test_frac of 0.1 leaves no test clip among 4 clips"):
        stratified_split([0, 1, 2, 3], seed=0)


def test_split_names_a_class_left_without_training_clips():
    with pytest.raises(DatasetError, match="class 1 has no sample left for training"):
        stratified_split([0, 0, 1], seed=0, test_frac=0.5)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=40, max_value=400),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0.1, 0.2, 0.25]),
)
def test_split_invariants_property(n, classes, seed, frac):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    counts = np.bincount(labels, minlength=classes)
    if counts.min() == 0:
        return
    try:
        train, val, test = stratified_split(labels.tolist(), seed=seed, test_frac=frac)
    except DatasetError as exc:
        # with frac <= 1/4 only a class of one or two clips can lose them all
        assert counts[int(re.search(r"class (\d+)", str(exc)).group(1))] <= 2
        return
    every = np.concatenate([train, val, test])
    assert sorted(every.tolist()) == list(range(n))  # disjoint and covering
    assert len(test) == int(round(frac * n))
    assert len(val) == int(round(frac * (n - len(test))))
    test_counts = np.bincount(labels[test], minlength=classes)
    val_counts = np.bincount(labels[val], minlength=classes)
    # within one sample of the proportional share
    assert np.all(np.abs(test_counts - frac * counts) <= 1 + 1e-9)
    assert np.all(np.abs(val_counts - frac * (counts - test_counts)) <= 1 + 1e-9)
    assert np.all(np.bincount(labels[train], minlength=classes) > 0)


def test_metrics_hand_example():
    report = metrics_from_pairs([0, 0, 1, 1], [0, 1, 1, 1], 2)
    per_class = report["per_class"]
    assert per_class["precision"][0] == 1.0
    assert per_class["recall"][0] == 0.5
    assert abs(per_class["f1"][0] - 0.6667) < 1e-4
    assert abs(per_class["precision"][1] - 0.6667) < 1e-4
    assert per_class["recall"][1] == 1.0
    assert abs(per_class["f1"][1] - 0.8) < 1e-4
    assert report["accuracy"] == 0.75


def test_metrics_perfect_predictions():
    report = metrics_from_pairs([0, 1, 2], [0, 1, 2], 3)
    assert report["accuracy"] == 1.0
    assert_allclose(report["per_class"]["f1"], np.ones(3))


def test_metrics_absent_class_scores_zero():
    report = metrics_from_pairs([0, 0, 1], [0, 0, 0], 2)
    per_class = report["per_class"]
    assert per_class["precision"][1] == 0.0
    assert per_class["recall"][1] == 0.0
    assert per_class["f1"][1] == 0.0


def _brute_force_metrics(true_labels, predicted, n_classes):
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(true_labels, predicted):
        confusion[t][p] += 1
    precision, recall, f1, support = [], [], [], []
    for c in range(n_classes):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(n_classes)) - tp
        fn = sum(confusion[c]) - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        support.append(sum(confusion[c]))
    total = len(true_labels)
    return {
        "confusion": confusion,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": sum(confusion[c][c] for c in range(n_classes)) / total,
        "macro_f1": sum(f1) / n_classes,
        "weighted_f1": sum(f * s for f, s in zip(f1, support)) / total,
    }


def test_metrics_match_brute_force_recount():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        true_labels = rng.integers(0, n_classes, size=n)
        predicted = rng.integers(0, n_classes, size=n)
        report = metrics_from_pairs(true_labels, predicted, n_classes)
        oracle = _brute_force_metrics(true_labels, predicted, n_classes)
        per_class = report["per_class"]
        assert np.array_equal(report["confusion"], oracle["confusion"])
        assert_allclose(per_class["precision"], oracle["precision"], rtol=0, atol=0)
        assert_allclose(per_class["recall"], oracle["recall"], rtol=0, atol=0)
        assert_allclose(per_class["f1"], oracle["f1"], rtol=0, atol=0)
        assert report["accuracy"] == oracle["accuracy"]
        assert report["macro"]["f1"] == oracle["macro_f1"]
        assert report["weighted"]["f1"] == oracle["weighted_f1"]
        assert np.sum(report["confusion"]) == n


def test_metrics_empty_subset():
    with pytest.raises(DatasetError):
        metrics_from_pairs([], [], 2)


def test_inverse_frequency_alphas():
    alphas = inverse_frequency_alphas([0, 0, 0, 1], 2)
    assert alphas[1] > alphas[0]
    assert abs(alphas.mean() - 1.0) < 1e-12
    with pytest.raises(DatasetError):
        inverse_frequency_alphas([0, 0], 2)


def _tiny_network_and_clips():
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), conv_channels=4,
                      gru_layers=2, gru_hidden=4)
    spec = default_synthetic_spec(levels=6, seed=2, length_range=(1300, 1700))
    return Network(cfg, seed=4), generate_synthetic(spec, 2)


def test_predict_rows_are_each_clips_forward_in_clip_order():
    net, clips = _tiny_network_and_clips()
    samples = [c.samples for c in clips[:3]][::-1]
    labels, log_probs = predict(net, samples)
    rows = np.stack([net.forward(s).data[0] for s in samples])
    assert np.array_equal(log_probs, rows)
    assert np.array_equal(labels, np.argmax(rows, axis=1))
    # nothing a forward pass writes is kept between calls
    again_labels, again = predict(net, samples)
    assert np.array_equal(again, log_probs)
    assert np.array_equal(again_labels, labels)
    with pytest.raises(ContractError, match="workers"):
        predict(net, samples, workers=2)


# each bad clip follows a good one: every clip is checked before any forward
BAD_CLIPS = {
    "two_channels": (lambda good: good.reshape(2, -1), DimensionError),
    "text": (lambda good: np.array(["0.1", "0.2"]), ContractError),
    "ragged": (lambda good: [[0.1, 0.2], [0.3]], ContractError),
    "nan": (lambda good: np.where(np.arange(good.size) == 7, np.nan, good), NumericalError),
    "inf": (lambda good: np.where(np.arange(good.size) == 7, -np.inf, good), NumericalError),
}


@pytest.mark.parametrize("name", list(BAD_CLIPS))
def test_predict_rejects_a_bad_clip_before_any_forward(name, monkeypatch):
    net, clips = _tiny_network_and_clips()
    good = clips[0].samples[:1400]
    bad, error = BAD_CLIPS[name]
    monkeypatch.setattr(net, "forward", lambda *a, **k: pytest.fail("a forward ran"))
    with pytest.raises(error, match="clip 1"):
        predict(net, [good, bad(good)])


def test_predict_rejects_an_empty_clip_list(monkeypatch):
    net, _ = _tiny_network_and_clips()
    monkeypatch.setattr(net, "forward", lambda *a, **k: pytest.fail("a forward ran"))
    with pytest.raises(DatasetError, match="empty"):
        predict(net, [])



@pytest.mark.parametrize("name", ["two_channels", "nan"])
def test_train_model_rejects_a_bad_clip_before_any_forward(name, monkeypatch):
    # a (2, 700) clip would train as 1,400 samples; a NaN one would fail as
    # non-finite gradients in every parameter block
    net, clips = _tiny_network_and_clips()
    good = clips[0].samples[:1400]
    bad, error = BAD_CLIPS[name]
    monkeypatch.setattr(net, "forward", lambda *a, **k: pytest.fail("a forward ran"))
    with pytest.raises(error, match="clip 1"):
        train_model(net, [good, bad(good)], [0, 1], LossConfig(), AdamState(), epochs=1, seed=0)

def test_validation_records_the_mean_per_clip_focal_loss_and_accuracy():
    net, clips = _tiny_network_and_clips()
    train, val = clips[:4], clips[4:]
    loss_cfg = LossConfig(class_alpha=np.array([0.5, 1.0, 1.5, 1.0]))
    records = train_model(net, [c.samples for c in train], [c.label for c in train], loss_cfg,
                          AdamState(), epochs=1, seed=0, batch_size=4,
                          val_clips=[c.samples for c in val], val_labels=[c.label for c in val])
    [record] = [r for r in records if r.split == "val"]
    losses, hits = [], []
    for clip in val:
        log_probs = net.forward(clip.samples)
        losses.append(float(focal_loss(log_probs, [clip.label], loss_cfg).data))
        hits.append(np.argmax(log_probs.data[0]) == clip.label)
    assert abs(record.loss - np.mean(losses)) <= 1e-12
    assert abs(record.accuracy - np.mean(hits)) <= 1e-12
