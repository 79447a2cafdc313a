"""Audio ingestion, resampling, manifests, and the synthetic dataset.

WAV reading is a small RIFF chunk walker (PCM16 and float32, mono or
stereo); everything is normalized to 16 kHz mono float64 in [-1, 1].  The
synthetic dataset emits clips whose energy sits in chosen octave bands, so a
fixed wavelet decomposition separates the classes by construction.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, FormatError, ParseError

TARGET_RATE = 16000
SUPPORTED_RATES = (8000, 16000, 22050, 44100, 48000)

_WAVE_FORMAT_NAMES = {
    0x0001: "PCM",
    0x0003: "IEEE_FLOAT",
    0x0006: "ALAW",
    0x0007: "MULAW",
    0xFFFE: "EXTENSIBLE",
}


@dataclass
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int
    label: int = -1
    source_id: str = ""

    def __len__(self):
        return len(self.samples)


def read_file(path):
    """All bytes of ``path``; a file that cannot be read is a ParseError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def load_wav(path):
    """Parse a RIFF/WAVE file into a mono AudioClip at its original rate.

    PCM16 samples are scaled by 1/32768; finite float32 passes through;
    stereo frames are averaged.  Malformed structure, a partial frame and a
    NaN or infinite float raise ParseError with the byte offset; unsupported
    encodings raise FormatError naming the code.
    """
    raw = read_file(path)

    def need(offset, count, what):
        if offset + count > len(raw):
            raise ParseError(f"{path}: truncated {what} at byte {offset}")
        return raw[offset : offset + count]

    if need(0, 4, "RIFF magic") != b"RIFF":
        raise ParseError(f"{path}: missing RIFF magic at byte 0")
    if need(8, 4, "WAVE magic") != b"WAVE":
        raise ParseError(f"{path}: missing WAVE form type at byte 8")

    offset = 12
    fmt = None
    data = None
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, offset + 4)
        body = offset + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise ParseError(f"{path}: fmt chunk too small at byte {offset}")
            fmt = struct.unpack("<HHIIHH", need(body, 16, "fmt chunk"))
        elif chunk_id == b"data":
            data = need(body, chunk_size, "data chunk")
            data_at = body
        offset = body + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise ParseError(f"{path}: no fmt chunk before byte {offset}")
    if data is None:
        raise ParseError(f"{path}: no data chunk before byte {offset}")

    audio_format, channels, rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise FormatError(f"{path}: {channels} channels unsupported (want 1 or 2)")
    if audio_format == 0x0001 and bits == 16:
        dtype = "<i2"
    elif audio_format == 0x0003 and bits == 32:
        dtype = "<f4"
    else:
        name = _WAVE_FORMAT_NAMES.get(audio_format, hex(audio_format))
        raise FormatError(
            f"{path}: unsupported encoding {name} ({bits}-bit); "
            "want PCM 16-bit or IEEE float 32-bit"
        )
    size = bits // 8
    if len(data) % (size * channels):
        raise ParseError(
            f"{path}: data chunk at byte {data_at} holds {len(data)} bytes, "
            f"not a whole number of {channels}-channel frames of {size}-byte samples"
        )
    values = np.frombuffer(data, dtype=dtype).astype(np.float64)
    if dtype == "<i2":
        values = values / 32768.0
    elif not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ParseError(f"{path}: non-finite float sample at byte {data_at + size * bad}")
    if channels == 2:
        values = values.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples=values, sample_rate=int(rate), source_id=str(path))


def write_wav_pcm16(path, samples, rate):
    """Write mono float samples in [-1, 1] as a PCM16 RIFF/WAVE file."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    ints = np.clip(np.round(clipped * 32768.0), -32768, 32767).astype("<i2")
    body = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, 1, int(rate), int(rate) * 2, 2, 16,
        b"data", len(body),
    )
    Path(path).write_bytes(header + body)


_RESAMPLE_TAPS = 64
_KAISER_BETA = 8.6


def _kaiser_window(t):
    # Kaiser window evaluated at continuous offsets t in (-half, half]
    half = _RESAMPLE_TAPS / 2.0
    x = np.clip(t / half, -1.0, 1.0)
    return np.i0(_KAISER_BETA * np.sqrt(1.0 - x * x)) / np.i0(_KAISER_BETA)


def resample_to_16k(clip):
    """Polyphase windowed-sinc resampling to 16 kHz (bit-exact passthrough).

    The per-phase kernel rows are normalized to unit sum, so constants are
    preserved exactly; edges are replicate-padded.
    """
    if clip.sample_rate == TARGET_RATE:
        return AudioClip(clip.samples.copy(), TARGET_RATE, clip.label, clip.source_id)
    if clip.sample_rate not in SUPPORTED_RATES:
        raise FormatError(
            f"unsupported source rate {clip.sample_rate}; supported: {SUPPORTED_RATES}"
        )
    x = clip.samples
    out_len = int(round(len(x) * TARGET_RATE / clip.sample_rate))
    ratio = Fraction(TARGET_RATE, clip.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    half = _RESAMPLE_TAPS // 2
    padded = np.concatenate([np.full(half, x[0] if len(x) else 0.0), x,
                             np.full(_RESAMPLE_TAPS, x[-1] if len(x) else 0.0)])
    m = np.arange(out_len)
    # source position of output sample m is m * down / up
    base = (m * down) // up
    phase_of = (m * down) % up
    taps = np.arange(-half + 1, half + 1, dtype=np.float64)
    table = np.empty((up, _RESAMPLE_TAPS))
    cutoff = min(1.0, up / down)
    for phase in range(up):
        t = taps - phase / up
        kernel = cutoff * np.sinc(cutoff * t) * _kaiser_window(t)
        table[phase] = kernel / kernel.sum()
    gather = base[:, None] + (taps + half)[None, :].astype(int)
    segments = padded[gather]
    out = (segments * table[phase_of]).sum(axis=1)
    return AudioClip(out, TARGET_RATE, clip.label, clip.source_id)


@dataclass
class BandComponent:
    band: int  # 0 = highest-frequency detail band, levels = approximation
    energy: float
    am_rate: float


@dataclass
class SyntheticClass:
    name: str
    components: list


@dataclass
class SyntheticSpec:
    classes: list
    length_range: tuple = (8000, 12800)
    noise_floor: float = 0.005
    seed: int = 0
    levels: int = 8

    def __post_init__(self):
        for cls in self.classes:
            for comp in cls.components:
                if not 0 <= comp.band <= self.levels:
                    raise ConfigError(
                        f"band index {comp.band} out of range for {self.levels} levels"
                    )

    def label_names(self):
        return [c.name for c in self.classes]


def default_synthetic_spec(levels=8, seed=0, length_range=(8000, 12800)):
    """Four classes with energy in well-separated octaves plus AM texture."""
    classes = [
        SyntheticClass("low", [BandComponent(levels, 1.0, 2.0)]),
        SyntheticClass("mid-low", [BandComponent(5, 1.0, 4.0)]),
        SyntheticClass("mid-high", [BandComponent(3, 1.0, 6.0)]),
        SyntheticClass("high", [BandComponent(1, 1.0, 8.0)]),
    ]
    return SyntheticSpec(classes=classes, length_range=length_range, seed=seed,
                         levels=levels)


def _band_edges(band, levels, rate=TARGET_RATE):
    # detail band j (0-based) spans [rate / 2^(j+2), rate / 2^(j+1));
    # the approximation covers everything below the last detail band
    if band < levels:
        hi = rate / 2 ** (band + 1)
        lo = rate / 2 ** (band + 2)
    else:
        hi = rate / 2 ** (levels + 1)
        lo = max(2.0, hi / 16.0)
    return lo, hi


def generate_synthetic(spec, n_per_class):
    """Deterministic labeled clips realizing each class's octave profile."""
    min_len, max_len = spec.length_range
    if min_len > max_len or min_len < 1:
        raise ConfigError(f"bad length range {spec.length_range}")
    clips = []
    for class_idx, cls in enumerate(spec.classes):
        for i in range(n_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence((spec.seed, class_idx, i))
            )
            length = int(rng.integers(min_len, max_len + 1))
            t = np.arange(length) / TARGET_RATE
            signal = np.zeros(length)
            for comp in cls.components:
                lo, hi = _band_edges(comp.band, spec.levels)
                amp = math.sqrt(comp.energy)
                for _ in range(3):
                    freq = math.exp(rng.uniform(math.log(lo * 1.15), math.log(hi / 1.15)))
                    phase = rng.uniform(0, 2 * math.pi)
                    tone = np.sin(2 * math.pi * freq * t + phase)
                    am = 1.0 + 0.5 * np.sin(2 * math.pi * comp.am_rate * t + rng.uniform(0, 2 * math.pi))
                    signal += (amp / 3.0) * tone * am
            signal += spec.noise_floor * rng.normal(size=length)
            peak = np.abs(signal).max()
            if peak > 0:
                signal = 0.9 * signal / peak
            clips.append(
                AudioClip(signal, TARGET_RATE, label=class_idx,
                          source_id=f"synthetic/{cls.name}/{i:04d}")
            )
    return clips


def load_manifest(path, root=None):
    """(clips, vocabulary) from a UTF-8 `path,label` CSV.

    Every referenced file must exist before any is read.  The clips are at
    16 kHz, in row order, each labelled by its index in ``vocabulary``: the
    label names in first-seen order.
    """
    path = Path(path)
    root = Path(root) if root is not None else path.parent
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}")
    lines = [ln for ln in io.StringIO(text, newline="")
             if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.reader(lines)
    rows = []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["path", "label"]:
            raise DatasetError(f"{path}: manifest must start with header 'path,label'")
        for line in reader:
            if not line:
                continue
            if len(line) < 2 or not line[0].strip() or not line[1].strip():
                raise DatasetError(f"{path}: malformed row {line!r}")
            rows.append((line[0].strip(), line[1].strip()))
    except csv.Error as exc:  # such as a field over csv's field size limit
        raise DatasetError(f"{path}: unreadable csv at line {reader.line_num}, not counting "
                           f"blank or comment lines: {exc}") from None
    missing = [rel for rel, _ in rows if not (root / rel).is_file()]
    if missing:
        raise DatasetError(f"{path}: missing files: {missing}")
    vocabulary = list(dict.fromkeys(label for _, label in rows))
    clips = []
    for rel, label in rows:
        clip = resample_to_16k(load_wav(root / rel))
        clip.label = vocabulary.index(label)
        clip.source_id = rel
        clips.append(clip)
    return clips, vocabulary
