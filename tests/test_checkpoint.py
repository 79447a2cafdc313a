import json
import re
import struct

import numpy as np
import pytest

from wavelearn.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from wavelearn.errors import ParseError
from wavelearn.model import ModelConfig, Network
from wavelearn.wavelet import FrontEndConfig


def _write(path, header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)
    return path


def _header(params):
    return {"format_version": FORMAT_VERSION, "config": {}, "params": params}


def test_round_trip_reproduces_the_forward_pass(tmp_path):
    cfg = ModelConfig(frontend=FrontEndConfig(levels=4, kernel_size=4), conv_channels=3,
                      gru_layers=2, gru_hidden=3)
    net = Network(cfg, seed=1)
    samples = np.random.default_rng(0).normal(size=200)
    path = tmp_path / "model.bin"
    save_checkpoint(path, net.state(), {"note": "tiny"})

    state, config = load_checkpoint(path)
    assert config == {"note": "tiny"}
    restored = Network(cfg, seed=2)
    restored.load_state(state)
    assert np.array_equal(restored.forward(samples).data, net.forward(samples).data)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_old_versions_are_rejected_by_name(tmp_path, version):
    header = {"format_version": version, "config": {}, "params": []}
    with pytest.raises(ParseError, match=f"version {version} at byte 8"):
        load_checkpoint(_write(tmp_path / "old.bin", header))


def test_non_object_header(tmp_path):
    with pytest.raises(ParseError, match="byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", [FORMAT_VERSION]))


def test_missing_params(tmp_path):
    header = {"format_version": FORMAT_VERSION, "config": {}}
    with pytest.raises(ParseError, match="byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", header))


def test_non_list_params(tmp_path):
    with pytest.raises(ParseError, match="byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", _header(3)))


def test_entry_without_name(tmp_path):
    with pytest.raises(ParseError, match="byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", _header([{"shape": [1]}]), b"\0" * 8))


@pytest.mark.parametrize("shape", [[-1], [2, -3], [1.5], ["2"], [True], 4])
def test_bad_shape(tmp_path, shape):
    header = _header([{"name": "w", "shape": shape}])
    with pytest.raises(ParseError, match="byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", header, b"\0" * 64))


def test_deeply_nested_header(tmp_path):
    path = tmp_path / "c.bin"
    blob = b"[" * 100_000
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ParseError, match="bad header json at byte 8"):
        load_checkpoint(path)


def test_non_object_config(tmp_path):
    header = {"format_version": FORMAT_VERSION, "config": [1], "params": []}
    with pytest.raises(ParseError, match="'config' at byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", header))


@pytest.mark.parametrize("shape", [[0, 2**70], [0] * 65], ids=["huge", "too-many-axes"])
def test_empty_shape_numpy_cannot_build(tmp_path, shape):
    header = _header([{"name": "w", "shape": [1]}, {"name": "v", "shape": shape}])
    offset = 8 + len(json.dumps(header)) + 8
    with pytest.raises(ParseError, match=f"bad shape for 'v' at byte {offset}:"):
        load_checkpoint(_write(tmp_path / "c.bin", header, b"\0" * 8))


@pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
def test_unreadable_file_is_a_parse_error_naming_it(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(ParseError, match=re.escape(f"{path}: cannot read")):
        load_checkpoint(path)


def test_a_duplicate_parameter_name_is_rejected_by_name(tmp_path):
    header = _header([{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}])
    with pytest.raises(ParseError, match="duplicate parameter 'w' in header at byte 8"):
        load_checkpoint(_write(tmp_path / "c.bin", header, b"\0" * 16))


def test_bytes_after_the_last_parameter_are_rejected_at_their_offset(tmp_path):
    header = _header([{"name": "w", "shape": [2]}])
    offset = 8 + len(json.dumps(header)) + 16
    with pytest.raises(ParseError, match=f"3 bytes after the last parameter at byte {offset}"):
        load_checkpoint(_write(tmp_path / "c.bin", header, b"\0" * 19))


def test_load_state_rejects_a_parameter_the_network_does_not_hold():
    net = Network(ModelConfig(frontend=FrontEndConfig(levels=4, kernel_size=4), conv_channels=3,
                              gru_layers=1, gru_hidden=3))
    state = net.state()
    state["head.9"] = np.zeros(2)
    with pytest.raises(ParseError, match="checkpoint parameter 'head.9' is not in this network"):
        net.load_state(state)
