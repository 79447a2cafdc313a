"""Checkpoint container: length-prefixed JSON header, then float64 payload.

Layout: 8-byte little-endian unsigned header length, the UTF-8 JSON header
(format version, config echo, ordered parameter names and shapes), then each
parameter's entries as little-endian 64-bit floats in header order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .data import read_file
from .errors import ParseError

# 2: each GRU direction is stored as fused (w_ih, w_hh, b_ih, b_hh) tensors
# 3: the run-config echo lost four model keys that had only one value in use
# 4: the run-config echo lost training.folds; one validation split replaced the folds
# 5: the run-config echo lost ablation; its model fields state the network built
# 6: no instance norm, spatial score bias or temporal fc1 bias; names shift
FORMAT_VERSION = 6


def save_checkpoint(path, state, config):
    """Write {name: array} parameters plus a config echo."""
    names = list(state.keys())
    header = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "params": [
            {"name": n, "shape": list(np.asarray(state[n]).shape)} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(state[n], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read back (state dict, config dict)."""
    raw = read_file(path)
    if len(raw) < 8:
        raise ParseError(f"{path}: truncated header length at byte 0")
    (header_len,) = struct.unpack_from("<Q", raw, 0)
    if 8 + header_len > len(raw):
        raise ParseError(f"{path}: truncated header at byte 8")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: bad header json at byte 8: {exc}")
    entries = _param_entries(path, header)
    config = header.get("config", {})
    if not isinstance(config, dict):
        raise ParseError(f"{path}: header 'config' at byte 8 is not a JSON object")
    state = {}
    offset = 8 + header_len
    for name, shape in entries.items():
        end = offset + 8 * math.prod(shape)
        if end > len(raw):
            raise ParseError(f"{path}: truncated payload for {name!r} at byte {offset}")
        try:
            state[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # an empty shape with too many or too large extents
            raise ParseError(f"{path}: bad shape for {name!r} at byte {offset}: {exc}")
        offset = end
    if offset != len(raw):
        raise ParseError(f"{path}: {len(raw) - offset} bytes after the last parameter "
                         f"at byte {offset}")
    return state, config


def _param_entries(path, header):
    """Validated {name: shape} of a decoded header, in payload order."""
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header at byte 8 is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format version {version!r} at byte 8; "
            f"this build reads version {FORMAT_VERSION}"
        )
    params = header.get("params")
    if not isinstance(params, list):
        raise ParseError(f"{path}: header 'params' at byte 8 is not a list")
    entries = {}
    for item in params:
        name = item.get("name") if isinstance(item, dict) else None
        shape = item.get("shape") if isinstance(item, dict) else None
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise ParseError(f"{path}: bad parameter entry {item!r} in header at byte 8")
        if name in entries:
            raise ParseError(f"{path}: duplicate parameter {name!r} in header at byte 8")
        entries[name] = tuple(shape)
    return entries
