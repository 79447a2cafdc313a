"""Fuzzing of the inputs a user controls: files and config overrides.

Each loader test mutates a small valid file (overwrite, insert, delete,
truncate) and asserts that loading it either succeeds or raises a
``WavelearnError``; any other exception would reach the CLI as a traceback
instead of an exit code.  The config test draws one ``--set`` override over
every leaf of ``RunConfig`` and holds what it accepts to the same rule when
the run builds its network and data.  The checkpoint test puts the same draw
into a checkpoint's ``run`` entry, where ``predict`` and ``decompose`` must
run or exit 3.  Both draw a leaf's value from a fixed scalar pool or from its
declared domain's edges: each finite bound and its neighbours on both sides,
or each admitted value and values just outside.  A hand-built ``ModelConfig``
with one such value must be refused by ``Network`` exactly when the same
``--set`` override is refused.
"""

import contextlib
import io
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavelearn import cli
from wavelearn.checkpoint import load_checkpoint, save_checkpoint
from wavelearn.config import RunConfig, from_mapping, load_config
from wavelearn.data import generate_synthetic, load_manifest, load_wav, write_wav_pcm16
from wavelearn.errors import ConfigError, WavelearnError
from wavelearn.model import ModelConfig, Network, _leaves

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


def _edges(template, domain):
    """Values at and on both sides of each finite end of ``domain``, or its
    members and values just outside it, of ``template``'s type."""
    if domain is None:
        return []
    if isinstance(domain, tuple):
        outside = ([domain[-1] + "s"] if isinstance(template, str)
                   else [min(domain) - 1, min(domain) + 1, max(domain) + 2])
        return [*domain, *outside]
    edges = []
    for end in domain.split(","):
        bound = float(end.strip("[]() "))
        if math.isinf(bound):
            continue
        if isinstance(template, int):
            edges += [int(bound) - 1, int(bound), int(bound) + 1]
        else:
            edges += [float(np.nextafter(bound, -np.inf)), bound,
                      float(np.nextafter(bound, np.inf))]
    return edges


def _text(value):
    """``value`` as the text of a ``--set`` override that reads back as it."""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


LEAVES = {key: (value, domain) for key, value, domain in _leaves(RunConfig())}
EDGES = {key: _edges(value, domain) for key, (value, domain) in LEAVES.items()}

YAML_SCALARS = st.one_of(
    st.integers(-3, 32).map(str),
    st.sampled_from([".nan", ".inf", "-.inf"]),
    st.floats(-4.0, 40.0).map(repr),
    st.sampled_from(["true", "false", "null"]),
    st.text(max_size=6),
)


def _drawn(key, pool, as_text=True):
    """(key, value): from ``pool``, or about half the time one of the key's domain edges."""
    edges = [_text(v) if as_text else v for v in EDGES[key]]
    return st.tuples(st.just(key), st.one_of(st.sampled_from(edges), pool) if edges else pool)


OVERRIDES = st.sampled_from(list(LEAVES)).flatmap(lambda key: _drawn(key, YAML_SCALARS))


def _at_every_edge(argument, keys, as_text=True):
    """One explicit example per domain edge of each key, so none is left to chance."""
    def decorate(test):
        for key in keys:
            for value in EDGES[key]:
                test = example(**{argument: (key, _text(value) if as_text else value)})(test)
        return test
    return decorate


@settings(max_examples=400, deadline=2000, derandomize=True)
@given(override=OVERRIDES)
@_at_every_edge("override", LEAVES)
def test_a_set_override_is_a_run_or_a_config_error(override):
    key, text = override
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
@given(override=OVERRIDES)
@_at_every_edge("override", LEAVES)
def test_a_checkpoint_run_entry_is_a_run_or_a_data_error(fuzz_dir, override):
    key, text = override
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


def _typed(template):
    """Values of ``template``'s type from a pool small enough to build."""
    if isinstance(template, bool):
        return st.booleans()
    if isinstance(template, int):
        return st.integers(-3, 32)
    if isinstance(template, float):
        return st.floats(-4.0, 40.0) | st.sampled_from([math.nan, math.inf, -math.inf])
    return st.text(max_size=6)


# model.classes is derived, so an override of it is always refused
MODEL_KEYS = [key for key in LEAVES if key.startswith("model.") and key != "model.classes"]
# clips long enough for any drawn front end, so only the model's own rules refuse
LONG_CLIPS = ["data.synthetic_min_len=1000000000000000",
              "data.synthetic_max_len=1000000000000000"]


def _with_leaf(section, dotted, value):
    head, _, rest = dotted.partition(".")
    return replace(section, **{head: _with_leaf(getattr(section, head), rest, value)
                               if rest else value})


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(draw=st.sampled_from(MODEL_KEYS).flatmap(
    lambda key: _drawn(key, _typed(LEAVES[key][0]), as_text=False)))
@_at_every_edge("draw", MODEL_KEYS, as_text=False)
def test_a_hand_built_model_is_refused_exactly_when_its_override_is(draw):
    key, value = draw
    try:
        load_config(None, [*LONG_CLIPS, f"{key}={_text(value)}"])
        loaded = True
    except ConfigError:
        loaded = False
    try:
        Network(_with_leaf(ModelConfig(), key.removeprefix("model."), value))
        built = True
    except ConfigError:
        built = False
    assert built == loaded
