"""Command line entry point.

Subcommands: train, predict, decompose, synth-data.  The
finite-difference gradient check is a test suite, not a subcommand:
``PYTHONPATH=src python -m pytest -q tests/test_autodiff.py -k
"gradients_match_finite_differences or non_finite_gradient"``.
A run config is the defaults, then --config, then train's --ablation tag,
then each --set override in command-line order; a later source wins.  Only
train and synth-data take one.  Every run value has one spelling, its --set
key: ``--set training.seed=N``, ``--set training.epochs=N``, ``--set
data.synthetic_n_per_class=N``.  Every artifact lands under --out-dir with
fixed names and carries the config of the network it used in its header.
A config error exits 2 before --out-dir exists, and train creates --out-dir
only once its dataset has loaded, split and built its network.  An --out-dir
that cannot be created is a config error.  train scores its own test split and
writes those metrics itself.  A checkpoint is self-describing: predict and
decompose read its run config, class names and learned parameters and take
no config flags.
decompose writes the bands of the checkpoint's own front end: its learned
filters, then LAHT where the run used it.
Every subcommand runs on one thread.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from .autodiff import Tensor
from .data import (
    generate_synthetic,
    load_manifest,
    load_wav,
    resample_to_16k,
    write_wav_pcm16,
)
from .errors import (
    ConfigError,
    DatasetError,
    FormatError,
    LabelError,
    NumericalError,
    ParseError,
    WavelearnError,
)
from .model import ABLATION_TAGS, Network
from .training import (
    AdamState,
    LossConfig,
    inverse_frequency_alphas,
    metrics_from_pairs,
    predict,
    stratified_split,
    train_model,
)
from .wavelet import frontend_forward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavelearn",
        description="Learnable wavelet filter-bank classifier for raw waveforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_config(p):
        p.add_argument("--config", default=None, help="YAML run configuration")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="dotted config override such as training.seed=N, "
                            "training.epochs=N or data.synthetic_n_per_class=N; the run "
                            "config is the defaults, then --config, then train's --ablation, "
                            "then each --set in command-line order, a later source winning")

    p_train = sub.add_parser("train", help="train on the configured dataset")
    run_config(p_train)
    p_train.add_argument("--ablation", default=None, choices=ABLATION_TAGS)

    p_pred = sub.add_parser("predict", help="classify wav files in the order given, CSV on stdout")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("wavs", nargs="+", help="wav files to classify")

    p_dec = sub.add_parser(
        "decompose",
        help="write a checkpoint's wavelet bands of one wav: learned filters, then LAHT if used")
    p_dec.add_argument("--checkpoint", required=True)
    p_dec.add_argument("wav", help="input wav file")

    p_synth = sub.add_parser("synth-data", help="write the synthetic dataset as wav + manifest")
    run_config(p_synth)

    for p in (p_train, p_dec, p_synth):
        p.add_argument("--out-dir", default="out", help="artifact directory")
    return parser


def _samples(clips, fe):
    """Each clip's samples; a clip shorter than the front end's minimum is a DatasetError."""
    for clip in clips:
        if len(clip) < fe.min_input_length:
            raise DatasetError(
                f"{clip.source_id}: {len(clip)} samples at 16 kHz, below the "
                f"{fe.levels}-level front end's minimum {fe.min_input_length}")
    return [clip.samples for clip in clips]


def _load_dataset(cfg):
    """Clips, integer labels, and label names for the configured source."""
    if cfg.data.manifest:
        clips, names = load_manifest(cfg.data.manifest, cfg.data.root)
        return _samples(clips, cfg.model.frontend), [c.label for c in clips], names
    spec = cfg.synthetic_spec()
    clips = generate_synthetic(spec, cfg.data.synthetic_n_per_class)
    return ([c.samples for c in clips], [c.label for c in clips], spec.label_names())


def _out_dir(path):
    """``path`` as a created directory; one that cannot be created is a ConfigError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir: cannot create {path}: {exc}") from exc
    return path


def _config_comment(cfg):
    return "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)


def _write_metrics(out_dir, cfg, report, extra=None):
    payload = {"config": cfg.to_dict(), "metrics": report}
    if extra:
        payload.update(extra)
    (out_dir / "metrics.json").write_text(json.dumps(payload, sort_keys=True, indent=2))
    confusion = report["confusion"]
    lines = [_config_comment(cfg), "true\\predicted," + ",".join(map(str, range(len(confusion))))]
    lines.extend(f"{i}," + ",".join(map(str, row)) for i, row in enumerate(confusion))
    (out_dir / "confusion.csv").write_text("\n".join(lines) + "\n")


def _write_epochs(out_dir, cfg, records):
    lines = [_config_comment(cfg), "epoch,split,loss,accuracy"]
    for r in records:
        lines.append(f"{r.epoch},{r.split},{r.loss:.10g},{r.accuracy:.10g}")
    (out_dir / "epochs.csv").write_text("\n".join(lines) + "\n")


def cmd_train(args):
    cfg = cfgmod.load_config(args.config, args.overrides, args.ablation)
    clips, labels, names = _load_dataset(cfg)
    n_classes = cfg.model.classes = len(names)
    train_idx, val_idx, test_idx = stratified_split(labels, cfg.training.seed,
                                                    test_frac=cfg.training.test_frac)
    labels_arr = np.asarray(labels)
    train_clips = [clips[i] for i in train_idx]
    train_labels = labels_arr[train_idx].tolist()
    val_clips = [clips[i] for i in val_idx]
    val_labels = labels_arr[val_idx].tolist()

    net = Network(cfg.model, seed=cfg.training.seed)
    out_dir = _out_dir(args.out_dir)
    loss_cfg = LossConfig(
        gamma=cfg.training.gamma,
        class_alpha=inverse_frequency_alphas(train_labels, n_classes),
        lam=cfg.training.lam,
    )
    adam = AdamState(lr=cfg.training.lr, beta1=cfg.training.beta1,
                     beta2=cfg.training.beta2, eps=cfg.training.eps)
    records = train_model(
        net, train_clips, train_labels, loss_cfg, adam,
        epochs=cfg.training.epochs, seed=cfg.training.seed,
        batch_size=cfg.training.batch_size,
        val_clips=val_clips, val_labels=val_labels,
    )
    _write_epochs(out_dir, cfg, records)
    ckpt.save_checkpoint(out_dir / "checkpoint.bin", net.state(),
                         {"run": cfg.to_dict(), "classes": names})
    test_clips = [clips[i] for i in test_idx]
    test_labels = labels_arr[test_idx].tolist()
    report = metrics_from_pairs(test_labels, predict(net, test_clips)[0], n_classes)
    _write_metrics(out_dir, cfg, report, extra={"classes": names, "split": "test"})
    print(f"train done: test accuracy {report['accuracy']:.4f}; artifacts in {out_dir}")
    return EXIT_OK


def _restore(checkpoint_path):
    """(network, run config, class names), all from the checkpoint alone."""
    state, meta = ckpt.load_checkpoint(checkpoint_path)
    run, names = meta.get("run"), meta.get("classes")
    if not isinstance(run, dict):
        raise ParseError(f"{checkpoint_path}: checkpoint key 'run' is not an object")
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise ParseError(
            f"{checkpoint_path}: checkpoint key 'classes' is not a non-empty list of strings")
    try:
        run_cfg = cfgmod.from_mapping(run)
        net = Network(run_cfg.model, seed=run_cfg.training.seed)
    except ConfigError as exc:
        raise ParseError(
            f"{checkpoint_path}: checkpoint key 'run' is not a run config: {exc}") from exc
    if run_cfg.model.classes != len(names):
        raise ParseError(f"{checkpoint_path}: checkpoint key 'classes' is not one name per "
                         f"class: {len(names)} names for model.classes {run_cfg.model.classes}")
    try:
        net.load_state(state)
    except ParseError as exc:
        raise ParseError(f"{checkpoint_path}: {exc}") from exc
    return net, run_cfg, names


def cmd_predict(args):
    net, _, names = _restore(args.checkpoint)
    clips = _samples([resample_to_16k(load_wav(wav)) for wav in args.wavs], net.cfg.frontend)
    predicted, log_probs = predict(net, clips)
    header = ["path", "predicted"] + [f"logp_{i}" for i in range(log_probs.shape[1])]
    print(",".join(header))
    for wav, cls, row in zip(args.wavs, predicted, log_probs):
        print(",".join([wav, names[cls]] + [f"{v:.10g}" for v in row]))
    return EXIT_OK


def cmd_decompose(args):
    net, cfg, _ = _restore(args.checkpoint)
    fe = cfg.model.frontend
    [samples] = _samples([resample_to_16k(load_wav(args.wav))], fe)
    bands = frontend_forward(Tensor(samples.reshape(1, 1, -1)), fe, net.filters, net.lahts)
    out_dir = _out_dir(args.out_dir)
    lines = [_config_comment(cfg), "band,index,value"]
    names = [f"d{level}" for level in range(1, fe.levels + 1)] + [f"a{fe.levels}"]
    for name, band in zip(names, bands):
        lines.extend(f"{name},{i},{v:.17g}" for i, v in enumerate(band.data.reshape(-1)))
    path = out_dir / "bands.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"decompose done: {fe.levels} detail bands + approximation in {path}")
    return EXIT_OK


def cmd_synth_data(args):
    cfg = cfgmod.load_config(args.config, args.overrides)
    spec = cfg.synthetic_spec()
    clips = generate_synthetic(spec, cfg.data.synthetic_n_per_class)
    out_dir = Path(args.out_dir)
    _out_dir(out_dir / "wav")
    rows = []
    for i, clip in enumerate(clips):
        name = f"wav/clip_{i:04d}.wav"
        write_wav_pcm16(out_dir / name, clip.samples, clip.sample_rate)
        rows.append((name, spec.label_names()[clip.label]))
    lines = [_config_comment(cfg), "path,label"]
    lines.extend(f"{p},{label}" for p, label in rows)
    (out_dir / "manifest.csv").write_text("\n".join(lines) + "\n")
    print(f"synth-data done: {len(clips)} clips under {out_dir}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "predict": cmd_predict,
        "decompose": cmd_decompose,
        "synth-data": cmd_synth_data,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, LabelError, ParseError, FormatError) as exc:
        print(f"data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WavelearnError as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
