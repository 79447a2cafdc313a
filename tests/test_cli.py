import argparse
import json
import logging
import struct

import numpy as np
import pytest

from wavelearn import autodiff as ad
from wavelearn import cli, gradcheck
from wavelearn.checkpoint import load_checkpoint, save_checkpoint
from wavelearn.config import from_mapping, load_config
from wavelearn.data import generate_synthetic, write_wav_pcm16
from wavelearn.model import ABLATION_TAGS, Network, apply_ablation
from wavelearn.training import metrics_from_pairs, stratified_split

TINY = [
    "model.frontend.levels=6", "model.frontend.kernel_size=4", "model.conv_channels=2",
    "model.gru_layers=1", "model.gru_hidden=2",
    "data.synthetic_n_per_class=10", "data.synthetic_min_len=300", "data.synthetic_max_len=320",
]
TINY_ARGS = [arg for item in TINY for arg in ("--set", item)]


def _checkpoint(path, meta_of, changes=()):
    cfg = load_config(None, TINY + list(changes))
    spec = cfg.synthetic_spec()
    clips = generate_synthetic(spec, cfg.data.synthetic_n_per_class)
    names = spec.label_names()
    net = Network(cfg.model, seed=cfg.training.seed)
    save_checkpoint(path, net.state(), meta_of(cfg, names))
    return cfg, clips


def _with_run(cfg, names):
    return {"run": cfg.to_dict(), "classes": names}


def _evaluate(tmp_path, checkpoint, monkeypatch, seen):
    def fake_evaluate(model, clips, labels, n_classes):
        seen.extend(clips)
        return metrics_from_pairs(labels, labels, n_classes)

    monkeypatch.setattr(cli, "evaluate", fake_evaluate)
    return cli.main(["evaluate", "--checkpoint", str(checkpoint),
                     "--out-dir", str(tmp_path / "out")])


def _assert_scored_the_test_split(seen, cfg, clips):
    ts = cfg.training
    *_, test_idx = stratified_split([c.label for c in clips], ts.seed, test_frac=ts.test_frac)
    assert len(seen) == len(test_idx)
    assert all(np.array_equal(got, clips[i].samples) for got, i in zip(seen, test_idx))


def test_evaluate_scores_the_split_the_checkpoint_was_trained_under(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    cfg, clips = _checkpoint(path, _with_run, ["training.seed=1"])
    labels = [c.label for c in clips]
    *_, default_split = stratified_split(labels, 0, test_frac=cfg.training.test_frac)
    *_, trained_split = stratified_split(labels, 1, test_frac=cfg.training.test_frac)
    assert not np.array_equal(default_split, trained_split)

    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_OK
    _assert_scored_the_test_split(seen, cfg, clips)
    echo = json.loads((tmp_path / "out" / "metrics.json").read_text())["config"]
    assert echo == cfg.to_dict()


def test_evaluate_test_split_needs_the_run_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: {"classes": names})
    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_DATA
    assert seen == []
    assert "checkpoint key 'run' is not an object" in capsys.readouterr().err


def test_evaluate_needs_the_class_names(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: {"run": c.to_dict()})
    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_DATA
    assert seen == []
    assert "checkpoint key 'classes' is not" in capsys.readouterr().err


def test_evaluate_test_split_needs_the_training_dataset(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    cfg, clips = _checkpoint(path, _with_run, ["data.synthetic_seed=1"])
    default = generate_synthetic(load_config(None, TINY).synthetic_spec(), 10)
    assert not np.array_equal(default[0].samples, clips[0].samples)
    seen = []
    assert _evaluate(tmp_path, path, monkeypatch, seen) == cli.EXIT_OK
    _assert_scored_the_test_split(seen, cfg, clips)


OPTIONS = {
    "train": ["--ablation", "--config", "--epochs", "--out-dir", "--seed", "--set"],
    "evaluate": ["--checkpoint", "--out-dir"],
    "predict": ["--checkpoint"],
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
    assert sum(map(len, got.values())) == 17


@pytest.mark.parametrize("argv", [
    ["evaluate", "--checkpoint", "m.bin", "--seed", "1"],
    ["evaluate", "--checkpoint", "m.bin", "--epochs", "1"],
    ["decompose", "x.wav", "--seed", "1"],
    ["decompose", "x.wav", "--epochs", "1"],
    ["decompose", "x.wav", "--ablation", "db10"],
    ["synth-data", "--seed", "1"],
    ["synth-data", "--epochs", "1"],
    ["synth-data", "--ablation", "db10"],
    ["evaluate", "--checkpoint", "m.bin", "--config", "run.yaml"],
    ["evaluate", "--checkpoint", "m.bin", "--set", "training.seed=1"],
    ["evaluate", "--checkpoint", "m.bin", "--ablation", "db10"],
    ["evaluate", "--checkpoint", "m.bin", "--split", "all"],
    ["predict", "--checkpoint", "m.bin", "x.wav", "--config", "run.yaml"],
    ["predict", "--checkpoint", "m.bin", "x.wav", "--set", "training.seed=0"],
    ["predict", "--checkpoint", "m.bin", "x.wav", "--ablation", "allkernel+laht"],
    ["train", "--workers", "2"],
    ["evaluate", "--checkpoint", "m.bin", "--workers", "2"],
    ["predict", "--checkpoint", "m.bin", "x.wav", "--workers", "2"],
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
    on_disk = TINY_ARGS + ["--set", f"data.manifest={data / 'manifest.csv'}"]

    assert cli.main(["synth-data", "--out-dir", str(data), *TINY_ARGS]) == cli.EXIT_OK
    rows = _artifact(data / "manifest.csv", "path,label")[2:]
    assert len(rows) == 40
    assert cli.main(["train", "--epochs", "1", "--out-dir", str(run), *on_disk]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                     "--out-dir", str(scored)]) == cli.EXIT_OK
    wav = data / rows[0].split(",")[0]
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.bin"),
                     str(wav)]) == cli.EXIT_OK
    predicted = capsys.readouterr().out.splitlines()
    assert cli.main(["decompose", "--out-dir", str(tmp_path), *TINY_ARGS, str(wav)]) == cli.EXIT_OK

    epochs = _artifact(run / "epochs.csv", "epoch,split,loss,accuracy")
    assert [line.split(",")[:2] for line in epochs[2:]] == [["1", "train"], ["1", "val"]]
    _artifact(run / "confusion.csv", "true\\predicted,0,1,2,3")
    for name in ("metrics.json", "confusion.csv"):
        assert (scored / name).read_bytes() == (run / name).read_bytes()
    trained = json.loads((run / "metrics.json").read_text())
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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-4"])
def test_gradcheck_tolerance_must_be_finite_and_positive(tolerance, monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "run_suite", lambda **kw: pytest.fail("suite ran"))
    assert cli.main(["gradcheck", f"--tolerance={tolerance}"]) == cli.EXIT_CONFIG
    assert "--tolerance" in capsys.readouterr().err


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    def nan_gradient(t):
        out = ad.record("fake", t[0].data * 1.0, (t[0],), lambda g: (np.full_like(g, np.nan),))
        return ad.reduce_sum(out)

    cases = {"exp": gradcheck.core_cases()["exp"], "nan_gradient": (nan_gradient, [np.ones(3)])}
    monkeypatch.setattr(gradcheck, "all_cases", lambda: cases)
    assert cli.main(["gradcheck"]) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert "nan_gradient" in out and "[FAIL]" in out
    assert "failed for nan_gradient" in err


def test_gradcheck_fails_when_any_error_is_nan(monkeypatch):
    # max() over these keeps 1e-9 and drops the NaN
    monkeypatch.setattr(gradcheck, "run_suite", lambda **kw: {"ok": 1e-9, "bad": float("nan")})
    assert cli.main(["gradcheck"]) == cli.EXIT_NUMERICAL


def _predict(checkpoint, wav, *options):
    return cli.main(["predict", "--checkpoint", str(checkpoint), *options, str(wav)])


@pytest.mark.parametrize("option", [["--seed", "1"], ["--epochs", "1"], ["--out-dir", "d"]],
                         ids=lambda option: option[0])
def test_predict_takes_no_training_options(tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        _predict(tmp_path / "model.bin", tmp_path / "clip.wav", *option)
    assert exc.value.code == 2


def _old_checkpoint(path, version, edit_run):
    _checkpoint(path, _with_run)
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + size])
    header["format_version"] = version
    edit_run(header["config"]["run"])
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + size:])


def test_predict_rejects_a_version_3_checkpoint_by_its_version(tmp_path, capsys):
    path = tmp_path / "model.bin"
    # the key version 4 dropped
    _old_checkpoint(path, 3, lambda run: run["training"].update(folds=10))
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert "unsupported format version 3 at byte 8" in capsys.readouterr().err


def test_predict_rejects_a_version_4_checkpoint_by_its_version(tmp_path, capsys):
    path = tmp_path / "model.bin"
    _old_checkpoint(path, 4, lambda run: run.update(ablation="db10"))  # dropped by version 5
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert "unsupported format version 4 at byte 8" in capsys.readouterr().err


def test_predict_with_a_missing_checkpoint_exits_3(tmp_path, capsys):
    assert _predict(tmp_path / "nope.bin", tmp_path / "x.wav") == cli.EXIT_DATA
    assert "nope.bin: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("key, meta", [
    ("run", {"run": [1]}),
    ("classes", {"run": {}, "classes": 7}),
    ("classes", {"run": {}, "classes": ["calm", 2]}),
    ("run", {}),
    ("classes", {"run": {}}),
    ("classes", {"run": {}, "classes": []}),
    ("run", {"run": {"training": {"lam": -1}}, "classes": ["a", "b", "c", "d"]}),
    ("classes", {"run": {}, "classes": ["a", "b"]}),  # model.classes is 4
    ("run", {"run": {"model": {"gru_layers": 2.5}}, "classes": ["a", "b", "c", "d"]}),
], ids=["run-list", "classes-int", "classes-mixed", "run-missing", "classes-missing",
        "classes-empty", "run-invalid", "classes-count", "run-non-integral"])
def test_restore_rejects_mistyped_metadata(tmp_path, capsys, key, meta):
    path = tmp_path / "model.bin"
    _checkpoint(path, lambda c, names: meta)
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert f"checkpoint key '{key}' is not" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"training:\n  seed: \xff\n"),
], ids=["directory", "not-utf8"])
def test_an_unreadable_config_file_exits_2(tmp_path, capsys, make):
    path = tmp_path / "run.yaml"
    make(path)
    argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"cannot read config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [("1: 2\n", "'1'"), ("model:\n  3: x\n", "'model.3'")],
                         ids=["top-level", "nested"])
def test_a_config_file_with_a_non_string_key_exits_2(tmp_path, capsys, text, key):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"unknown config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_with_a_kernel_longer_than_40_exits_2(tmp_path, capsys):
    argv = ["train", "--set", "model.frontend.kernel_size=42", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "model.frontend.kernel_size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("per_class", ["0", "-1"])
def test_synth_data_rejects_a_per_class_count_below_one(tmp_path, capsys, per_class):
    argv = ["synth-data", "--per-class", per_class, "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "data.synthetic_n_per_class" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _shapes(state):
    return [(name, np.shape(value)) for name, value in state.items()]


@pytest.mark.parametrize("tag", ABLATION_TAGS)
def test_the_run_echo_of_an_ablation_tag_builds_its_network(tag):
    tiny = TINY + (["model.head_kernel=1"] if "nogru" in tag else [])  # a 2-wide band vector
    echo = load_config(None, tiny, ablation=tag).to_dict()
    built = Network(apply_ablation(load_config(None, tiny).model, tag))
    assert _shapes(Network(from_mapping(echo).model).state()) == _shapes(built.state())


def _train(tmp_path, *options):
    run = tmp_path / "run"
    argv = ["train", "--epochs", "1", "--out-dir", str(run), *TINY_ARGS,
            "--set", "data.synthetic_n_per_class=4", *options]
    assert cli.main(argv) == cli.EXIT_OK
    state, meta = load_checkpoint(run / "checkpoint.bin")
    echo = json.loads((run / "metrics.json").read_text())["config"]
    assert echo == meta["run"]
    assert _shapes(Network(from_mapping(echo).model).state()) == _shapes(state)
    return echo["model"], state


def test_a_set_override_wins_over_the_ablation_tag_and_is_echoed(tmp_path):
    model, state = _train(tmp_path, "--ablation", "db10",
                          "--set", "model.frontend.laht_enabled=true")
    assert model["frontend"]["sharing"] == "db10_fixed"
    assert model["frontend"]["laht_enabled"]
    assert "frontend.laht.0.0" in state


def test_the_echo_states_the_class_count_of_the_data(tmp_path):
    model, state = _train(tmp_path, "--set", "model.classes=9")
    assert model["classes"] == 4
    assert state["head.0"].shape[0] == 4


@pytest.mark.parametrize("source", ["yaml", "set"])
def test_ablation_is_not_a_config_key_on_the_command_line(tmp_path, capsys, source):
    path = tmp_path / "run.yaml"
    path.write_text("ablation: db10\n")
    config = ["--config", str(path)] if source == "yaml" else ["--set", "ablation=db10"]
    argv = ["train", *config, "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "unknown config key 'ablation'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_checkpoint_whose_parameters_do_not_fit_its_run_exits_3(tmp_path, capsys):
    path = tmp_path / "model.bin"
    wider = load_config(None, TINY + ["model.gru_hidden=3"]).to_dict()
    _checkpoint(path, lambda c, names: {"run": wider, "classes": names})  # gru_hidden=2 state
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    assert f"{path}: checkpoint shape (6, 2) != (9, 2) for 'gru.0.0'" in capsys.readouterr().err


def test_a_checkpoint_with_a_parameter_the_network_does_not_hold_exits_3(tmp_path, capsys):
    path = tmp_path / "model.bin"
    cfg = load_config(None, TINY)
    state = Network(cfg.model, seed=cfg.training.seed).state()
    state["gru.0.99"] = np.zeros(3)
    save_checkpoint(path, state, _with_run(cfg, cfg.synthetic_spec().label_names()))
    assert _predict(path, tmp_path / "x.wav") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"data: {path}: checkpoint parameter 'gru.0.99' is not in this network" in err
    assert "Traceback" not in err


def test_a_checkpoint_with_a_non_finite_parameter_exits_3(tmp_path, capsys):
    path, wav = tmp_path / "model.bin", tmp_path / "clip.wav"
    cfg = load_config(None, TINY)
    state = Network(cfg.model, seed=cfg.training.seed).state()
    state["head.0"].flat[3] = np.nan
    save_checkpoint(path, state, _with_run(cfg, cfg.synthetic_spec().label_names()))
    write_wav_pcm16(wav, np.random.default_rng(0).uniform(-0.5, 0.5, 400), 16000)
    assert _predict(path, wav) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert f"data: {path}: checkpoint parameter 'head.0' holds a non-finite value" in err
    assert "nan" not in out


def _short_wav(tmp_path):
    wav = tmp_path / "short.wav"
    write_wav_pcm16(wav, np.zeros(100), 16000)
    return wav


def test_predict_rejects_a_clip_shorter_than_the_front_end_minimum(tmp_path, capsys):
    path = tmp_path / "model.bin"
    _checkpoint(path, _with_run)
    wav = _short_wav(tmp_path)
    assert _predict(path, wav) == cli.EXIT_DATA
    assert f"data: {wav}: 100 samples at 16 kHz, below the 6-level front end's minimum 256" \
        in capsys.readouterr().err


def test_decompose_rejects_a_clip_shorter_than_the_front_end_minimum(tmp_path, capsys):
    wav = _short_wav(tmp_path)
    argv = ["decompose", "--out-dir", str(tmp_path / "out"), *TINY_ARGS, str(wav)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"{wav}: 100 samples at 16 kHz" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_rejects_a_manifest_clip_shorter_than_the_front_end_minimum(tmp_path, capsys):
    _short_wav(tmp_path)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\nshort.wav,calm\n")
    argv = ["train", "--out-dir", str(tmp_path / "out"), *TINY_ARGS,
            "--set", f"data.manifest={manifest}"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "short.wav: 100 samples at 16 kHz" in capsys.readouterr().err
