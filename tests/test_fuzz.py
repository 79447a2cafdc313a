"""Fuzzing of the inputs a user controls: files and config overrides.

Each loader test mutates a small valid file (overwrite, insert, delete,
truncate) and asserts that loading it either succeeds or raises a
``WavelearnError``; any other exception would reach the CLI as a traceback
instead of an exit code.  The config test draws one ``--set`` override over
every leaf of ``RunConfig`` and holds what it accepts to the same rule when
the run builds its network and data.  The checkpoint test puts the same draw
into a checkpoint's ``run`` entry, where ``predict`` and ``decompose`` must
run or exit 3.
"""

import contextlib
import io
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelearn import cli
from wavelearn.checkpoint import load_checkpoint, save_checkpoint
from wavelearn.config import RunConfig, from_mapping, load_config
from wavelearn.data import generate_synthetic, load_manifest, load_wav, write_wav_pcm16
from wavelearn.errors import ConfigError, WavelearnError
from wavelearn.model import Network

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["overwrite", "insert", "delete", "truncate"]),
        st.integers(0, 1 << 16),
        st.binary(min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=6,
)


def _mutate(seed, edits):
    data = bytearray(seed)
    for op, pos, blob in edits:
        pos %= len(data) + 1
        if op == "overwrite":
            data[pos : pos + len(blob)] = blob
        elif op == "insert":
            data[pos:pos] = blob
        elif op == "delete":
            del data[pos : pos + len(blob)]
        else:
            del data[pos:]
    return bytes(data)


def _chunk(tag, body):
    return tag + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def _wav(fmt_code, bits, channels, payload):
    rate = 16000
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * channels * bits // 8,
                      channels * bits // 8, bits)
    body = b"WAVE" + _chunk(b"fmt ", fmt) + _chunk(b"LIST", b"odd") + _chunk(b"data", payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


WAV_SEEDS = [
    _wav(1, 16, 1, struct.pack("<6h", 0, 1000, -1000, 32767, -32768, 5)),
    _wav(3, 32, 2, struct.pack("<4f", 0.25, -0.5, 0.125, 1.0)),
]


def _load_mutated(loader, directory, name, blob, *args):
    path = directory / name
    path.write_bytes(blob)
    try:
        loader(path, *args)
    except WavelearnError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(seed=st.sampled_from(WAV_SEEDS), edits=EDITS)
def test_load_wav_raises_only_package_errors(fuzz_dir, seed, edits):
    _load_mutated(load_wav, fuzz_dir, "clip.wav", _mutate(seed, edits))


@FUZZ
@given(edits=EDITS)
def test_load_checkpoint_raises_only_package_errors(fuzz_dir, edits):
    seed_path = fuzz_dir / "seed.bin"
    if not seed_path.exists():
        state = {"gru.0.w_ih": np.arange(6.0).reshape(2, 3), "head.bias": np.array([0.5, -1.0])}
        config = {"run": {"training": {"seed": 0}}, "classes": ["a", "b"]}
        save_checkpoint(seed_path, state, config)
    _load_mutated(load_checkpoint, fuzz_dir, "model.bin", _mutate(seed_path.read_bytes(), edits))


@FUZZ
@given(edits=EDITS)
def test_load_manifest_raises_only_package_errors(fuzz_dir, edits):
    for name in ("a.wav", "b.wav"):  # readable, so an accepted manifest loads its clips
        (fuzz_dir / name).write_bytes(WAV_SEEDS[0])
    seed = b"# config: {}\npath,label\na.wav,anger\r\nb.wav,neutral\n\"a.wav\",neutral\n"
    _load_mutated(load_manifest, fuzz_dir, "manifest.csv", _mutate(seed, edits), fuzz_dir)


def _leaf_keys(section, prefix=""):
    keys = []
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            keys += _leaf_keys(value, f"{prefix}{f.name}.")
        else:
            keys.append(prefix + f.name)
    return keys


YAML_SCALARS = st.one_of(
    st.integers(-3, 32).map(str),
    st.sampled_from([".nan", ".inf", "-.inf"]),
    st.floats(-4.0, 40.0).map(repr),
    st.sampled_from(["true", "false", "null"]),
    st.text(max_size=6),
)


@settings(max_examples=400, deadline=2000, derandomize=True)
@given(key=st.sampled_from(_leaf_keys(RunConfig())), text=YAML_SCALARS)
def test_a_set_override_is_a_run_or_a_config_error(key, text):
    try:
        cfg = load_config(None, [f"{key}={text}"])
    except ConfigError:
        return
    assert from_mapping(cfg.to_dict()) == cfg
    Network(cfg.model, seed=cfg.training.seed)
    try:
        generate_synthetic(cfg.synthetic_spec(), 1)
    except WavelearnError:
        pass


TINY = ["model.frontend.levels=6", "model.frontend.kernel_size=4", "model.conv_channels=2",
        "model.gru_layers=1", "model.gru_hidden=2",
        "data.synthetic_min_len=300", "data.synthetic_max_len=320"]


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(key=st.sampled_from(_leaf_keys(RunConfig())), text=YAML_SCALARS)
def test_a_checkpoint_run_entry_is_a_run_or_a_data_error(fuzz_dir, key, text):
    cfg = load_config(None, TINY)
    run = cfg.to_dict()
    *sections, leaf = key.split(".")
    entry = run
    for section in sections:
        entry = entry[section]
    try:
        entry[leaf] = yaml.safe_load(text)
    except yaml.YAMLError:
        entry[leaf] = text
    path, wav = fuzz_dir / "run.bin", fuzz_dir / "clip.wav"
    state = Network(cfg.model, seed=cfg.training.seed).state()
    save_checkpoint(path, state, {"run": run, "classes": cfg.synthetic_spec().label_names()})
    write_wav_pcm16(wav, np.random.default_rng(0).uniform(-0.5, 0.5, 400), 16000)
    for command, *options in (["predict"], ["decompose", "--out-dir", str(fuzz_dir / "bands")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--checkpoint", str(path), *options, str(wav)])
        assert code in (cli.EXIT_OK, cli.EXIT_DATA)
        assert code == cli.EXIT_OK or err.getvalue().startswith(f"data: {path}: ")
