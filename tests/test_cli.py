import argparse
import json
import logging
import struct
from dataclasses import replace

import numpy as np
import pytest

from wavelearn import cli
from wavelearn.checkpoint import load_checkpoint, save_checkpoint
from wavelearn.config import load_config
from wavelearn.data import generate_synthetic, write_wav_pcm16
from wavelearn.model import Network
from wavelearn.training import metrics_from_pairs, stratified_split

TINY = [
    "model.frontend.levels=6", "model.frontend.kernel_size=4", "model.conv_channels=2",
    "model.gru_layers=1", "model.gru_hidden=2",
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
    argv = ["evaluate", "--checkpoint", str(checkpoint), "--set", "training.seed=1",
            "--out-dir", str(tmp_path / "out")]
    for item in TINY + list(extra):
        argv += ["--set", item]
    return cli.main(argv)


def test_evaluate_scores_the_split_the_checkpoint_was_trained_under(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    cfg, clips = _checkpoint(path, lambda c, names: {"run": c.to_dict(), "classes": names})
    assert cfg.training.seed == 0
    labels = [c.label for c in clips]
    *_, test_idx = stratified_split(labels, 0, test_frac=cfg.training.test_frac)
    *_, other = stratified_split(labels, 1, test_frac=cfg.training.test_frac)
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


OPTIONS = {
    "train": ["--ablation", "--config", "--epochs", "--out-dir", "--seed", "--set", "--workers"],
    "evaluate": ["--ablation", "--checkpoint", "--config", "--out-dir", "--set", "--split",
                 "--workers"],
    "predict": ["--ablation", "--checkpoint", "--config", "--set", "--workers"],
    "decompose": ["--config", "--out-dir", "--set"],
    "synth-data": ["--config", "--out-dir", "--per-class", "--set"],
    "gradcheck": ["--tolerance"],
}


def test_cli_options_per_subcommand():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, parser in sub.choices.items()
    }
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 27


@pytest.mark.parametrize("argv", [
    ["evaluate", "--checkpoint", "m.bin", "--seed", "1"],
    ["evaluate", "--checkpoint", "m.bin", "--epochs", "1"],
    ["decompose", "x.wav", "--seed", "1"],
    ["decompose", "x.wav", "--epochs", "1"],
    ["decompose", "x.wav", "--ablation", "db10"],
    ["synth-data", "--seed", "1"],
    ["synth-data", "--epochs", "1"],
    ["synth-data", "--ablation", "db10"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_removed_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def _artifact(path, header):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: {")
    assert lines[1] == header
    return lines


def test_end_to_end_on_the_tiny_config(tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO)
    data, run, scored = tmp_path / "data", tmp_path / "run", tmp_path / "scored"
    tiny = [arg for item in TINY for arg in ("--set", item)]
    on_disk = tiny + ["--set", f"data.manifest={data / 'manifest.csv'}"]

    assert cli.main(["synth-data", "--out-dir", str(data), *tiny]) == cli.EXIT_OK
    rows = _artifact(data / "manifest.csv", "path,label")[2:]
    assert len(rows) == 40
    assert cli.main(["train", "--epochs", "1", "--out-dir", str(run), *on_disk]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                     "--split", "test", "--out-dir", str(scored), *on_disk]) == cli.EXIT_OK
    wav = data / rows[0].split(",")[0]
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.bin"),
                     str(wav)]) == cli.EXIT_OK
    predicted = capsys.readouterr().out.splitlines()
    assert cli.main(["decompose", "--out-dir", str(tmp_path), *tiny, str(wav)]) == cli.EXIT_OK

    epochs = _artifact(run / "epochs.csv", "epoch,split,loss,accuracy")
    assert [line.split(",")[:2] for line in epochs[2:]] == [["1", "train"], ["1", "val"]]
    for out_dir in (run, scored):
        _artifact(out_dir / "confusion.csv", "true\\predicted,0,1,2,3")
    trained = json.loads((run / "metrics.json").read_text())
    evaluated = json.loads((scored / "metrics.json").read_text())
    assert evaluated["metrics"] == trained["metrics"]
    assert sum(trained["metrics"]["per_class"]["support"]) == 4
    assert predicted[0] == "path,predicted,logp_0,logp_1,logp_2,logp_3"
    assert predicted[1].startswith(f"{wav},")
    assert len(_artifact(tmp_path / "bands.csv", "band,index,value")) > 2

    state, meta = load_checkpoint(run / "checkpoint.bin")
    save_checkpoint(tmp_path / "again.bin", state, meta)
    assert (tmp_path / "again.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()
    assert not [r for r in caplog.records if "reducing folds" in r.getMessage()]


def test_gradcheck_takes_no_run_options():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--workers", "2"])
    assert exc.value.code == 2


def _predict(checkpoint, wav, *options):
    return cli.main(["predict", "--checkpoint", str(checkpoint), *options, str(wav)])


def _checkpoints_and_wav(tmp_path):
    with_run, without_run = tmp_path / "run.bin", tmp_path / "bare.bin"
    _checkpoint(with_run, lambda c, names: {"run": c.to_dict(), "classes": names})
    _, clips = _checkpoint(without_run, lambda c, names: {"classes": names})
    wav = tmp_path / "clip.wav"
    write_wav_pcm16(wav, clips[0].samples, clips[0].sample_rate)
    return with_run, without_run, wav


@pytest.mark.parametrize("option", [["--seed", "1"], ["--epochs", "1"], ["--out-dir", "d"]],
                         ids=lambda option: option[0])
def test_predict_takes_no_training_options(tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        _predict(tmp_path / "model.bin", tmp_path / "clip.wav", *option)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--config", "--ablation", "--set"])
def test_predict_rejects_options_the_run_config_overrides(tmp_path, capsys, flag):
    with_run, _, wav = _checkpoints_and_wav(tmp_path)
    (tmp_path / "run.yaml").write_text("training:\n  seed: 0\n")
    value = {"--config": str(tmp_path / "run.yaml"), "--ablation": "allkernel+laht",
             "--set": "training.seed=0"}[flag]
    assert _predict(with_run, wav, flag, value) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"which {flag} cannot change" in captured.err


def test_predict_builds_a_bare_checkpoint_from_the_options(tmp_path, capsys):
    with_run, without_run, wav = _checkpoints_and_wav(tmp_path)
    assert _predict(with_run, wav) == cli.EXIT_OK
    expected = capsys.readouterr().out
    options = [arg for item in TINY for arg in ("--set", item)]
    assert _predict(without_run, wav, *options) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
    assert expected.splitlines()[0] == "path,predicted,logp_0,logp_1,logp_2,logp_3"


def test_predict_rejects_a_version_3_checkpoint_by_its_version(tmp_path, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: {"run": c.to_dict(), "classes": names})
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + size])
    header["format_version"] = 3
    header["config"]["run"]["training"]["folds"] = 10  # the key version 4 dropped
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + size:])
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert "unsupported format version 3 at byte 8" in capsys.readouterr().err


def test_predict_with_a_missing_checkpoint_exits_3(tmp_path, capsys):
    assert _predict(tmp_path / "nope.bin", tmp_path / "x.wav") == cli.EXIT_DATA
    assert "nope.bin: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("key, meta", [
    ("run", {"run": [1]}),
    ("classes", {"classes": 7}),
    ("classes", {"classes": ["calm", 2]}),
], ids=["run-list", "classes-int", "classes-mixed"])
def test_restore_rejects_mistyped_metadata(tmp_path, capsys, key, meta):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: meta)
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert f"checkpoint key '{key}' is not" in capsys.readouterr().err
