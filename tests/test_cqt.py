import numpy as np
import pytest

from helpers import RATE, SMALL_CQT, noise_signal, tone
from spoofmeter import AudioSignal, CqtConfig, cqt_spectrogram, default_cqt_config
from spoofmeter import cqt as cqt_module
from spoofmeter.errors import ConfigError, SignalTooShortError


def test_bin_count_formula():
    config = CqtConfig(bins_per_octave=96, f_min=8000.0 / 2 ** 9,
                       f_max=8000.0, hop=160)
    assert config.n_bins == 96 * 9


def test_default_config_geometry():
    config = default_cqt_config(16000)
    assert config.f_max == 8000.0
    assert config.f_min == 8000.0 / 512
    assert config.hop == 160
    assert config.n_bins == 864


def test_zero_signal_gives_zero_magnitudes():
    spec = cqt_spectrogram(AudioSignal(np.zeros(4000), RATE), SMALL_CQT)
    assert np.all(spec.magnitudes == 0.0)


def test_frame_count_formula():
    for n in (4000, 4001, 4159, 4160):
        spec = cqt_spectrogram(AudioSignal(np.zeros(n), RATE), SMALL_CQT)
        assert spec.n_frames == (n - 1) // SMALL_CQT.hop + 1


def test_tone_peaks_at_its_bin():
    # Oracle by construction: a tone at an interior bin's center frequency
    # must dominate that bin in mid-signal frames.
    k = 30
    freq = SMALL_CQT.center_freqs[k]
    spec = cqt_spectrogram(tone(freq, n_samples=8000, amplitude=0.5), SMALL_CQT)
    mid = spec.magnitudes[spec.n_frames // 2]
    assert int(np.argmax(mid)) == k


def test_frame_chunks_match_single_chunk(monkeypatch):
    # 25 frames; the longest (539-sample) window gets chunks of 4, the last
    # one short.
    signal = noise_signal(np.random.default_rng(3), 4000)
    whole = cqt_spectrogram(signal, SMALL_CQT).magnitudes
    longest = int(SMALL_CQT.window_lengths(RATE)[0])
    monkeypatch.setattr(cqt_module, "_MAX_GATHER_FLOATS", 4 * longest)
    chunked = cqt_spectrogram(signal, SMALL_CQT).magnitudes
    assert whole.shape[0] % 4 != 0
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4000) * 0.2
    a = cqt_spectrogram(AudioSignal(x, RATE), SMALL_CQT)
    b = cqt_spectrogram(AudioSignal(2.5 * x, RATE), SMALL_CQT)
    assert np.allclose(b.magnitudes, 2.5 * a.magnitudes, rtol=1e-12, atol=1e-15)


def test_q_constancy_of_window_lengths():
    lengths = SMALL_CQT.window_lengths(RATE)
    freqs = SMALL_CQT.center_freqs
    q = SMALL_CQT.q_factor
    ratios = lengths * freqs / RATE
    # ceil() keeps N_k * f_k / rate within one bin spacing of Q
    assert np.all(ratios >= q - 1e-9)
    assert np.all(ratios <= q + freqs / RATE + 1e-9)


def test_center_freqs_geometric():
    freqs = SMALL_CQT.center_freqs
    ratios = freqs[1:] / freqs[:-1]
    assert np.allclose(ratios, 2.0 ** (1.0 / SMALL_CQT.bins_per_octave))
    assert np.all(np.diff(freqs) > 0)


def test_signal_too_short():
    needed = SMALL_CQT.window_lengths(RATE)[0]
    with pytest.raises(SignalTooShortError):
        cqt_spectrogram(AudioSignal(np.zeros(needed - 1), RATE), SMALL_CQT)


def test_f_max_above_nyquist_rejected():
    config = CqtConfig(bins_per_octave=12, f_min=500.0, f_max=9000.0, hop=160)
    with pytest.raises(ConfigError):
        cqt_spectrogram(AudioSignal(np.zeros(8000), RATE), config)


def test_invalid_config_values():
    with pytest.raises(ConfigError):
        CqtConfig(bins_per_octave=0, f_min=100.0, f_max=8000.0, hop=160)
    with pytest.raises(ConfigError):
        CqtConfig(bins_per_octave=12, f_min=8000.0, f_max=100.0, hop=160)
    with pytest.raises(ConfigError):
        CqtConfig(bins_per_octave=12, f_min=100.0, f_max=8000.0, hop=0)


def test_magnitudes_finite_nonnegative():
    rng = np.random.default_rng(4)
    spec = cqt_spectrogram(AudioSignal(rng.standard_normal(5000) * 0.3, RATE),
                           SMALL_CQT)
    assert np.all(np.isfinite(spec.magnitudes))
    assert np.all(spec.magnitudes >= 0.0)
    assert spec.frame_times[0] == 0.0
    assert np.allclose(np.diff(spec.frame_times), SMALL_CQT.hop / RATE)
