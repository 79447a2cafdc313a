"""Tests of the benchmark harness: inputs, span arithmetic, wrapping, checks.

They use a tiny model, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import importlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wavelearn.model import ModelConfig  # noqa: E402
from wavelearn.wavelet import FrontEndConfig  # noqa: E402

TINY_MODEL = ModelConfig(frontend=FrontEndConfig(levels=5, kernel_size=2),
                         conv_channels=2, gru_layers=1, gru_hidden=2)
TINY_TRAIN = workloads.Workload("tiny_train", "train", model=TINY_MODEL,
                                length_range=(256, 320))
TINY_PREDICT = workloads.Workload("tiny_predict", "predict", model=TINY_MODEL,
                                  length_range=(256, 320))


def _targets_now():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.TARGETS
    }


def test_inputs_are_deterministic_in_the_seed():
    def signature(seed, index):
        clips = workloads.make_batch(TINY_TRAIN, seed, index)
        return [(c.label, c.samples.tobytes()) for c in clips]

    first = signature(5, 0)
    assert len(first) == workloads.CLIPS_PER_BATCH
    assert first == signature(5, 0)
    assert first != signature(6, 0)
    assert first != signature(5, 1)
    lengths = [len(c) for c in workloads.make_batch(workloads.WORKLOADS["train_default"], 5, 0)]
    assert min(lengths) >= 8000 and max(lengths) <= 12800 and len(set(lengths)) > 1


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None],
        ["child", 1.0, 3.0, 0],
        ["grand", 1.5, 2.0, 1],
        ["child", 2.5, 4.0, 0],  # overlaps the first child: together they cover 3
        ["leaf", 5.0, 6.0, 0],
        ["outer", 20.0, 21.0, None],
    ]
    stats = tracer.stats()
    assert stats["outer"].calls == 2
    assert stats["outer"].total_s == pytest.approx(11.0)
    assert stats["outer"].self_s == pytest.approx(6.0 + 1.0)
    assert stats["child"].total_s == pytest.approx(3.5)
    assert stats["child"].self_s == pytest.approx(1.5 + 1.5)
    assert stats["grand"].self_s == pytest.approx(0.5)
    assert stats["leaf"].self_s == pytest.approx(1.0)


def test_spans_nest_through_the_context_manager():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    stats = tracer.stats()
    assert stats["a"].total_s == 10.0 and stats["a"].self_s == 7.0
    assert stats["b"].total_s == 3.0 and stats["b"].self_s == 3.0


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_PREDICT], ids=lambda w: w.name)
def test_traced_run_matches_untraced_and_removes_its_wrappers(workload, tmp_path):
    before = _targets_now()
    result, record = bench.run_workload(workload, seed=3, seconds=1e-6, trace=True,
                                        workdir=tmp_path)
    assert _targets_now() == before
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert record["trace_missing"] == []
    metrics = result["metrics"]
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    # 1 layer x 2 directions x 6 bands
    assert metrics["recurrent.gru_scan.calls"]["value"] == 12
    if workload.kind == "train":
        assert metrics["autodiff.nodes.gru_scan"]["value"] == 12
        assert metrics["autodiff.backward.gru_scan.ms"]["value"] > 0
        assert metrics["training.optimizer.ms"]["value"] > 0
    else:
        assert metrics["autodiff.nodes.total"]["value"] == 0
        assert metrics["checkpoint.load.ms"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "timed_setups", lambda *args: (0.5, 0.4))
    result, record = bench.run_workload(TINY_TRAIN, seed=1, seconds=1e-6, trace=False,
                                        workdir=tmp_path)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["env"]["parameters"] > 0 and record["env"]["tape_nodes"]["gru_scan"] == 12


def test_setup_is_timed_in_a_fresh_interpreter(tmp_path):
    workload = workloads.WORKLOADS["predict_default"]
    workloads.Session(workload, 2, tmp_path).write_checkpoint()
    wall, calibrated = bench.timed_setups(workload, 2, tmp_path, repeats=1)
    assert 0 < wall < 60 and 0 < calibrated < 60


def test_missing_target_is_reported_and_everything_is_restored():
    before = _targets_now()
    targets = tracing.TARGETS + (("wavelearn.recurrent", "no_such_scan", "x"),
                                 ("wavelearn.no_such_module", "f", "y"))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, targets):
            assert _targets_now() != before
            raise RuntimeError("a failing traced run still restores")
    assert tracer.missing == ["wavelearn.recurrent.no_such_scan", "wavelearn.no_such_module.f"]
    assert _targets_now() == before


def test_malformed_output_counts_as_a_failed_operation(tmp_path, monkeypatch):
    session = workloads.Session(TINY_PREDICT, 0, tmp_path)
    session.write_checkpoint()
    session.setup()
    assert bench.measure(session, n_ops=1).failed == 0

    outputs = iter([
        (np.array([0]), np.full((1, 4), np.nan)),
        (np.array([0]), np.zeros((1, 3))),
        (np.array([0]), np.log(np.full((1, 4), 0.3))),
    ])
    monkeypatch.setattr(session, "run", lambda inp: next(outputs))
    log = bench.measure(session, n_ops=4, log_to=io.StringIO())
    assert log.attempted == 4 and log.failed == 4  # the 4th raises StopIteration
    assert "non-finite" in log.errors[0] and "shape" in log.errors[1]
    assert "logsumexp" in log.errors[2] and "raised" in log.errors[3]
    assert log.ok_clips() == 0


def test_train_check_rejects_a_non_finite_moment(tmp_path):
    session = workloads.Session(TINY_TRAIN, 0, tmp_path)
    session.setup()
    out = session.run(session.op_input(0))
    assert session.check(session.op_input(0), out)[0] is None
    name = next(iter(session.net.parameters()))
    session.adam.m[name] = session.adam.m[name] * np.inf
    assert "non-finite" in session.check(session.op_input(0), out)[0]
