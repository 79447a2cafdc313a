import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn.data import (
    AudioClip,
    SUPPORTED_RATES,
    default_synthetic_spec,
    generate_synthetic,
    load_manifest,
    load_wav,
    resample_to_16k,
    write_wav_pcm16,
)
from wavelearn.errors import ConfigError, DatasetError, FormatError, ParseError


def _write_raw_wav(path, fmt_code, bits, channels, rate, payload):
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_code, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    _write_raw_wav(path, 1, 16, 1, 16000, struct.pack("<3h", 16384, -32768, 32767))
    clip = load_wav(path)
    assert clip.sample_rate == 16000
    assert_allclose(clip.samples, [0.5, -1.0, 32767 / 32768])


def test_stereo_average(tmp_path):
    path = tmp_path / "s.wav"
    frames = struct.pack("<4h", int(0.2 * 32768), int(0.4 * 32768), 0, 0)
    _write_raw_wav(path, 1, 16, 2, 22050, frames)
    clip = load_wav(path)
    assert_allclose(clip.samples, [0.3, 0.0], atol=1e-4)


def test_float32_passthrough(tmp_path):
    path = tmp_path / "f.wav"
    _write_raw_wav(path, 3, 32, 1, 48000, struct.pack("<2f", 0.25, -0.75))
    clip = load_wav(path)
    assert_allclose(clip.samples, [0.25, -0.75], atol=1e-7)


def test_malformed_riff_reports_offset(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNKxxxxWAVE")
    with pytest.raises(ParseError, match="byte 0"):
        load_wav(path)
    path.write_bytes(b"RIFF\x00\x00\x00\x00NOPE")
    with pytest.raises(ParseError, match="byte 8"):
        load_wav(path)


def test_truncated_fmt_chunk_reports_offset(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(b"RIFF\x00\x00\x00\x00WAVEfmt " + struct.pack("<I", 16) + b"\x01\x00\x01")
    with pytest.raises(ParseError, match="truncated fmt chunk at byte 20"):
        load_wav(path)


def test_partial_sample_reports_offset(tmp_path):
    path = tmp_path / "odd.wav"
    _write_raw_wav(path, 1, 16, 1, 16000, b"\x00\x01\x02")
    with pytest.raises(ParseError, match="byte 44 holds 3 bytes"):
        load_wav(path)


def test_partial_stereo_frame_reports_offset(tmp_path):
    path = tmp_path / "half.wav"
    _write_raw_wav(path, 1, 16, 2, 16000, struct.pack("<3h", 1, 2, 3))
    with pytest.raises(ParseError, match="byte 44 holds 6 bytes"):
        load_wav(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_reports_offset(tmp_path, bad):
    path = tmp_path / "nan.wav"
    _write_raw_wav(path, 3, 32, 1, 16000, struct.pack("<3f", 0.5, bad, 0.25))
    with pytest.raises(ParseError, match="non-finite float sample at byte 48"):
        load_wav(path)


def test_unsupported_encoding_names_code(tmp_path):
    path = tmp_path / "u.wav"
    _write_raw_wav(path, 7, 8, 1, 8000, b"\x00\x00")
    with pytest.raises(FormatError, match="MULAW"):
        load_wav(path)


def test_wav_roundtrip_within_half_lsb(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1, 1, size=500)
    path = tmp_path / "rt.wav"
    write_wav_pcm16(path, samples, 16000)
    back = load_wav(path)
    assert np.abs(back.samples - samples).max() <= 1.0 / 32768.0


def test_resample_passthrough_is_bit_exact():
    clip = AudioClip(np.random.default_rng(1).normal(size=100), 16000)
    out = resample_to_16k(clip)
    assert np.array_equal(out.samples, clip.samples)


def test_resample_unsupported_rate():
    with pytest.raises(FormatError):
        resample_to_16k(AudioClip(np.zeros(10), 11025))


@pytest.mark.parametrize("rate", [r for r in SUPPORTED_RATES if r != 16000])
def test_resample_output_length(rate):
    clip = AudioClip(np.zeros(rate), rate)  # one second
    out = resample_to_16k(clip)
    assert out.sample_rate == 16000
    assert len(out) == 16000


def test_resample_tone_peak_survives():
    rate = 48000
    t = np.arange(rate) / rate
    clip = AudioClip(np.sin(2 * np.pi * 1000.0 * t), rate)
    out = resample_to_16k(clip)
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spectrum) * 16000 / len(out)
    assert abs(peak_hz - 1000.0) <= 16000 / len(out)


def test_resample_dc_preserved():
    clip = AudioClip(np.full(44100, 0.5), 44100)
    out = resample_to_16k(clip)
    assert np.abs(out.samples - 0.5).max() < 1e-3


def test_resample_linearity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4410)
    a = resample_to_16k(AudioClip(3.5 * x, 44100)).samples
    b = 3.5 * resample_to_16k(AudioClip(x, 44100)).samples
    assert np.abs(a - b).max() < 1e-9


def test_synthetic_determinism_and_balance():
    spec = default_synthetic_spec(seed=42)
    a = generate_synthetic(spec, 5)
    b = generate_synthetic(spec, 5)
    assert len(a) == 20
    assert [c.label for c in a].count(0) == 5
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.samples, cb.samples)
    for clip in a:
        assert np.abs(clip.samples).max() <= 1.0
        assert spec.length_range[0] <= len(clip) <= spec.length_range[1]


def test_synthetic_band_index_validation():
    from wavelearn.data import BandComponent, SyntheticClass, SyntheticSpec

    with pytest.raises(ConfigError):
        SyntheticSpec(
            classes=[SyntheticClass("x", [BandComponent(9, 1.0, 2.0)])], levels=8
        )


def test_synthetic_lowest_octave_energy_in_approximation():
    from wavelearn.autodiff import Tensor
    from wavelearn.wavelet import FrontEndConfig, FrontEndFilters, frontend_forward

    spec = default_synthetic_spec(seed=7)
    clips = generate_synthetic(spec, 3)
    low_clips = [c for c in clips if c.label == 0]
    cfg = FrontEndConfig(levels=8, kernel_size=20, sharing="db10_fixed", laht_enabled=False)
    filters = FrontEndFilters(cfg)
    for clip in low_clips:
        bands = frontend_forward(Tensor(clip.samples.reshape(1, 1, -1)), cfg, filters)
        energies = np.array([(b.data**2).sum() for b in bands])
        assert energies[-1] / energies.sum() > 0.8


def test_synthetic_band_energy_nearest_centroid_separability():
    from wavelearn.autodiff import Tensor
    from wavelearn.wavelet import FrontEndConfig, FrontEndFilters, frontend_forward

    spec = default_synthetic_spec(seed=3, length_range=(5200, 6400))
    clips = generate_synthetic(spec, 10)
    cfg = FrontEndConfig(levels=8, kernel_size=20, sharing="db10_fixed", laht_enabled=False)
    filters = FrontEndFilters(cfg)

    def features(clip):
        bands = frontend_forward(Tensor(clip.samples.reshape(1, 1, -1)), cfg, filters)
        e = np.array([(b.data**2).mean() for b in bands])
        return e / e.sum()

    feats = np.stack([features(c) for c in clips])
    labels = np.array([c.label for c in clips])
    train = np.arange(len(clips)) % 2 == 0
    centroids = np.stack([feats[train & (labels == c)].mean(axis=0) for c in range(4)])
    predicted = np.argmin(
        ((feats[~train][:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
    )
    accuracy = (predicted == labels[~train]).mean()
    assert accuracy >= 0.95


def test_manifest_roundtrip(tmp_path):
    for i, name in enumerate(["x.wav", "y.wav", "z.wav"]):
        write_wav_pcm16(tmp_path / name, np.zeros(100), 16000)
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text("path,label\nx.wav,calm\ny.wav,tense\nz.wav,calm\n")
    clips, vocabulary = load_manifest(manifest_path)
    assert len(clips) == 3
    assert vocabulary == ["calm", "tense"]
    clip = clips[1]
    assert clip.label == 1
    assert clip.sample_rate == 16000


def test_manifest_missing_file(tmp_path):
    (tmp_path / "x.wav").write_bytes(b"not a wav")  # never read: the check comes first
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text("path,label\nx.wav,calm\nmissing.wav,calm\n")
    with pytest.raises(DatasetError, match="missing.wav"):
        load_manifest(manifest_path)


def test_missing_manifest_is_a_parse_error_naming_it(tmp_path):
    with pytest.raises(ParseError, match="manifest.csv: cannot read"):
        load_manifest(tmp_path / "manifest.csv")


def test_missing_wav_is_a_parse_error_naming_it(tmp_path):
    with pytest.raises(ParseError, match="clip.wav: cannot read"):
        load_wav(tmp_path / "clip.wav")


def test_manifest_invalid_utf8_reports_offset(tmp_path):
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_bytes(b"path,label\nx.wav,\xffcalm\n")
    with pytest.raises(ParseError, match="invalid UTF-8 at byte 17"):
        load_manifest(manifest_path)
