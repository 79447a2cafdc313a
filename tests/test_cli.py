from dataclasses import replace

import numpy as np
import pytest

from wavelearn import cli
from wavelearn.checkpoint import save_checkpoint
from wavelearn.config import load_config
from wavelearn.data import generate_synthetic
from wavelearn.model import Network
from wavelearn.training import metrics_from_pairs, stratified_split

TINY = [
    "model.frontend.levels=6", "model.frontend.kernel_size=4", "model.conv_channels=2",
    "model.gru_layers=1", "model.gru_hidden=2", "training.folds=3",
    "data.synthetic_n_per_class=10", "data.synthetic_min_len=300", "data.synthetic_max_len=320",
]


def _checkpoint(path, meta_of):
    cfg = load_config(None, TINY)
    spec = cfg.synthetic_spec()
    clips = generate_synthetic(spec, cfg.data.synthetic_n_per_class)
    names = spec.label_names()
    net = Network(replace(cfg.resolved_model(), classes=len(names)), seed=cfg.training.seed)
    save_checkpoint(path, net.state(), meta_of(cfg, names))
    return cfg, clips


def _evaluate(tmp_path, checkpoint, monkeypatch, seen, extra=()):
    def fake_evaluate(model, clips, labels, n_classes, workers=1):
        seen.extend(clips)
        return metrics_from_pairs(labels, labels, n_classes)

    monkeypatch.setattr(cli, "evaluate", fake_evaluate)
    argv = ["evaluate", "--checkpoint", str(checkpoint), "--seed", "1",
            "--out-dir", str(tmp_path / "out")]
    for item in TINY + list(extra):
        argv += ["--set", item]
    return cli.main(argv)


def test_evaluate_scores_the_split_the_checkpoint_was_trained_under(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    cfg, clips = _checkpoint(path, lambda c, names: {"run": c.to_dict(), "classes": names})
    assert cfg.training.seed == 0
    labels = [c.label for c in clips]
    ts = cfg.training
    test_idx = stratified_split(labels, 0, test_frac=ts.test_frac, n_folds=ts.folds).test_indices
    other = stratified_split(labels, 1, test_frac=ts.test_frac, n_folds=ts.folds).test_indices
    assert not np.array_equal(test_idx, other)

    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_OK
    assert len(seen) == len(test_idx)
    assert all(np.array_equal(got, clips[i].samples) for got, i in zip(seen, test_idx))


def test_evaluate_test_split_needs_the_run_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: {"classes": names})
    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_CONFIG
    assert seen == []
    assert "no run config" in capsys.readouterr().err


def test_evaluate_test_split_needs_the_training_dataset(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: {"run": c.to_dict(), "classes": names})
    seen = []
    extra = ["data.synthetic_seed=1"]
    assert _evaluate(tmp_path, path, monkeypatch, seen, extra) == cli.EXIT_CONFIG
    assert seen == []
    assert "data.synthetic_seed is 1" in capsys.readouterr().err


def test_gradcheck_takes_no_run_options():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--workers", "2"])
    assert exc.value.code == 2
