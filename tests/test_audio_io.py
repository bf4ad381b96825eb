import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import resample_poly

import spoofmeter
from helpers import tone, write_pcm16_wav
from spoofmeter import AudioSignal, read_wav, resample
from spoofmeter.audio_io import _lowpass_taps
from spoofmeter.errors import (
    CorruptHeaderError,
    EmptySignalError,
    InvalidRateError,
    UnsupportedChannelsError,
    UnsupportedFormatError,
)


def _fmt(audio_format=1, channels=1, rate=16000, bits=16):
    return struct.pack("<HHIIHH", audio_format, channels, rate,
                       rate * channels * bits // 8, channels * bits // 8, bits)


def _riff(*chunks):
    """A RIFF/WAVE container of ``(chunk_id, body)`` pairs, in order."""
    body = b"".join(chunk_id + struct.pack("<I", len(data)) + data
                    for chunk_id, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _wav_bytes(audio_format=1, channels=1, rate=16000, bits=16, data=b"\x00\x00"):
    return _riff((b"fmt ", _fmt(audio_format, channels, rate, bits)),
                 (b"data", data))


class TestReadWav:
    def test_pcm16_mono_contract(self, tmp_path):
        path = tmp_path / "a.wav"
        rng = np.random.default_rng(0)
        write_pcm16_wav(path, rng.uniform(-0.9, 0.9, 16000), rate=16000)
        sig = read_wav(path)
        assert sig.sample_rate == 16000
        assert len(sig) == 16000
        assert np.all(sig.samples >= -1.0) and np.all(sig.samples < 1.0)

    def test_integer_scaling(self, tmp_path):
        path = tmp_path / "s.wav"
        data = np.array([16384, -32768, 0], dtype="<i2").tobytes()
        path.write_bytes(_wav_bytes(data=data))
        sig = read_wav(path)
        assert sig.samples.tolist() == [0.5, -1.0, 0.0]

    def test_all_zero_file(self, tmp_path):
        path = tmp_path / "z.wav"
        write_pcm16_wav(path, np.zeros(1234))
        sig = read_wav(path)
        assert len(sig) == 1234
        assert np.all(sig.samples == 0.0)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(channels=2, data=b"\x00" * 8))
        with pytest.raises(UnsupportedChannelsError):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(_wav_bytes(audio_format=3))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "b8.wav"
        path.write_bytes(_wav_bytes(bits=8, data=b"\x00"))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"definitely not audio")
        with pytest.raises(CorruptHeaderError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "t.wav"
        good = _wav_bytes(data=b"\x00\x00" * 100)
        path.write_bytes(good[:-50])
        with pytest.raises(CorruptHeaderError):
            read_wav(path)

    @pytest.mark.parametrize("raw, message", [
        (_riff((b"data", b"\x00\x00")), "missing fmt chunk"),
        (_riff((b"fmt ", _fmt())), "missing data chunk"),
        (_riff((b"fmt ", _fmt()[:14]), (b"data", b"\x00\x00")),
         "fmt chunk too short"),
        (_wav_bytes(rate=0), "zero sample rate in header"),
        (_wav_bytes(data=b"\x01\x00\x02\x00\x03"),
         "data chunk of 5 bytes is not a whole number of 16-bit samples"),
    ], ids=["no-fmt", "no-data", "short-fmt", "zero-rate", "half-sample"])
    def test_malformed_container_names_file(self, tmp_path, raw, message):
        path = tmp_path / "c.wav"
        path.write_bytes(raw)
        with pytest.raises(CorruptHeaderError,
                           match=re.escape(f"{path}: {message}")):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_deterministic_reads(self, tmp_path):
        path = tmp_path / "d.wav"
        write_pcm16_wav(path, np.random.default_rng(1).uniform(-0.5, 0.5, 4000))
        a = read_wav(path)
        b = read_wav(path)
        assert np.array_equal(a.samples, b.samples)
        assert a.sample_rate == b.sample_rate


class TestResample:
    def test_length_ratio(self):
        sig = AudioSignal(np.random.default_rng(2).standard_normal(22050) * 0.1,
                          22050)
        out = resample(sig, 16000)
        assert out.sample_rate == 16000
        assert abs(len(out) - 16000) <= 1

    def test_dc_preserved(self):
        out = resample(AudioSignal(np.ones(22050), 22050), 16000)
        mid = out.samples[64:-64]
        assert np.max(np.abs(mid - 1.0)) < 1e-3

    def test_tone_matches_analytic_sine(self):
        # Oracle: the same 1 kHz sine generated directly at the target rate.
        out = resample(tone(1000.0, rate=22050, n_samples=22050), 16000)
        ref = np.sin(2 * np.pi * 1000.0 * np.arange(len(out)) / 16000)
        mid = slice(4000, len(out) - 4000)
        assert np.max(np.abs(out.samples[mid] - ref[mid])) < 0.01

    def test_identity_is_passthrough(self):
        sig = tone(440.0, n_samples=2000)
        assert resample(sig, sig.sample_rate) is sig

    @pytest.mark.parametrize("src,dst", [(22050, 16000), (16000, 22050)])
    def test_tone_energy_preserved(self, src, dst):
        sig = tone(1000.0, rate=src, n_samples=src)
        out = resample(sig, dst)
        mid = slice(len(out) // 4, -len(out) // 4)
        rms = np.sqrt(np.mean(out.samples[mid] ** 2))
        assert abs(rms / np.sqrt(0.5) - 1.0) < 0.01

    @pytest.mark.parametrize("src,dst,up,down",
                             [(22050, 16000, 320, 441), (16000, 8000, 1, 2)])
    def test_memoized_filter_gives_the_fresh_design_output(self, src, dst,
                                                           up, down):
        sig = AudioSignal(np.random.default_rng(8).standard_normal(src) * 0.1,
                          src)
        fresh = _lowpass_taps.__wrapped__(up, down)
        for _ in range(2):
            out = resample(sig, dst)
            assert out.samples.tobytes() == resample_poly(
                sig.samples, up, down, window=fresh).tobytes()
        taps = _lowpass_taps(up, down)
        assert taps is _lowpass_taps(up, down)
        assert not taps.flags.writeable
        assert taps.tobytes() == fresh.tobytes()

    def test_invalid_rate(self):
        with pytest.raises(InvalidRateError):
            resample(tone(100.0, n_samples=100), 0)

    def test_empty_signal(self):
        with pytest.raises(EmptySignalError):
            resample(AudioSignal(np.array([]), 16000), 8000)

    def test_scipy_signal_is_imported_only_to_change_the_rate(self):
        # It is most of the package's import time and memory.
        code = ("import sys, numpy as np, spoofmeter.cli\n"
                "from spoofmeter import AudioSignal, resample\n"
                "resample(AudioSignal(np.zeros(8), 16000), 16000)\n"
                "print('scipy.signal' in sys.modules)\n"
                "resample(AudioSignal(np.zeros(8), 16000), 8000)\n"
                "print('scipy.signal' in sys.modules)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(spoofmeter.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


class TestAudioSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioSignal(np.array([0.0, np.nan]), 16000)

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            AudioSignal(np.zeros((2, 4)), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidRateError):
            AudioSignal(np.zeros(10), 0)

    def test_immutable_samples(self):
        sig = AudioSignal(np.zeros(4), 16000)
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0
