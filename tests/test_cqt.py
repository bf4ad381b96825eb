import numpy as np
import pytest

from helpers import (
    MEDIUM_CQT,
    RATE,
    SMALL_CQT,
    noise_signal,
    resonant_noise,
    tone,
)
from spoofmeter import AudioSignal, CqtConfig, cqt_spectrogram, default_cqt_config
from spoofmeter import cqt
from spoofmeter.errors import ConfigError, SignalTooShortError


def naive_magnitudes(signal, config, frames=None):
    """Oracle from the docstring's definition, at the given frame indices.

    Every (frame, bin) inner product of a zero-padded copy with a
    Hann-windowed complex exponential centered at t * hop, normalized by N_k.
    """
    lengths = config.window_lengths(RATE)
    pad = int(lengths[0])
    padded = np.concatenate([np.zeros(pad), signal.samples, np.zeros(pad)])
    if frames is None:
        frames = range((len(signal) - 1) // config.hop + 1)
    expected = np.empty((len(frames), config.n_bins))
    for k, (win_len, freq) in enumerate(zip(lengths, config.center_freqs)):
        n = np.arange(win_len) - (win_len - 1) / 2.0
        kernel = (np.hanning(win_len) / win_len
                  * np.exp(2j * np.pi * freq * n / RATE))
        for i, t in enumerate(frames):
            start = pad + t * config.hop - win_len // 2
            expected[i, k] = abs(np.dot(padded[start:start + win_len], kernel))
    return expected


def assert_close_per_bin(actual, expected, rel):
    """Every magnitude within ``rel`` times its bin's largest expected one."""
    err = np.abs(actual - expected) / expected.max(axis=0)
    assert err.max() <= rel, f"largest error {err.max():.3g} of a bin's maximum"


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


@pytest.mark.parametrize("n_samples", [4000, 4001, 539, 600])
def test_matches_naive_inner_products(n_samples):
    # 4001 samples give a short last frame. 539 (the bin-0 window) and 600
    # give 4 frames, as many as the direct plan has hop blocks: the fewest the
    # length check allows, with every window in the zero padding on one side
    # or both.
    signal = noise_signal(np.random.default_rng(3), n_samples)
    spec = cqt_spectrogram(signal, SMALL_CQT)
    assert spec.n_frames == (n_samples - 1) // SMALL_CQT.hop + 1
    np.testing.assert_allclose(spec.magnitudes,
                               naive_magnitudes(signal, SMALL_CQT), rtol=0,
                               atol=1e-12 * spec.magnitudes.max())


@pytest.mark.parametrize("config, n_samples",
                         [(SMALL_CQT, 4001), (MEDIUM_CQT, 9000)],
                         ids=["small", "medium"])
def test_band_form_over_the_whole_spectrum_is_exact(monkeypatch, config,
                                                    n_samples):
    # Every bin on the band form, its band the whole spectrum: no cut is left,
    # so only rounding separates it from the direct inner products.
    monkeypatch.setattr(cqt, "_BAND_MIN_WINDOW", 0)
    monkeypatch.setattr(cqt, "_BAND_HALF_WIDTH", 1e9)
    signal = resonant_noise(np.random.default_rng(3), n_samples)
    assert_close_per_bin(cqt_spectrogram(signal, config).magnitudes,
                         naive_magnitudes(signal, config), 1e-10)


def test_band_cut_on_medium_grid():
    lengths = MEDIUM_CQT.window_lengths(RATE)
    assert lengths[0] >= cqt._BAND_MIN_WINDOW > lengths[-1]
    signal = resonant_noise(np.random.default_rng(3), 9000)
    assert_close_per_bin(cqt_spectrogram(signal, MEDIUM_CQT).magnitudes,
                         naive_magnitudes(signal, MEDIUM_CQT), 2e-4)


def test_default_grid_spot_check():
    config = default_cqt_config(RATE)
    signal = resonant_noise(np.random.default_rng(3), int(8.9 * RATE))
    spec = cqt_spectrogram(signal, config)
    frames = [0, spec.n_frames // 2, spec.n_frames - 1]
    assert_close_per_bin(spec.magnitudes[frames],
                         naive_magnitudes(signal, config, frames), 2e-4)


def test_small_grid_stays_on_the_direct_form(monkeypatch):
    signal = noise_signal(np.random.default_rng(3), 4001)
    shipped = cqt_spectrogram(signal, SMALL_CQT).magnitudes
    monkeypatch.setattr(cqt, "_BAND_MIN_WINDOW", np.inf)
    assert np.array_equal(shipped, cqt_spectrogram(signal, SMALL_CQT).magnitudes)


def test_blocked_direct_form_spans_many_hop_blocks():
    # MEDIUM_CQT's direct bins reach nearly 3000 samples, about 19 hop blocks.
    plan = cqt._direct_plan(MEDIUM_CQT, RATE, cqt._BAND_MIN_WINDOW)
    assert len(plan.blocks) > 10 and plan.first > 0
    signal = resonant_noise(np.random.default_rng(5), 9000)
    shipped = cqt_spectrogram(signal, MEDIUM_CQT).magnitudes
    assert_close_per_bin(shipped[:, plan.first:],
                         naive_magnitudes(signal, MEDIUM_CQT)[:, plan.first:],
                         1e-12)


def test_direct_plans_are_cached_per_grid_and_rate():
    other = CqtConfig(bins_per_octave=24, f_min=400.0, f_max=7000.0, hop=128)
    rng = np.random.default_rng(7)
    calls = [(config, noise_signal(rng, 5000, rate=rate))
             for config in (SMALL_CQT, other, SMALL_CQT, other)
             for rate in (RATE, 22050)]
    cqt._direct_plan.cache_clear()
    results = [cqt_spectrogram(signal, config).magnitudes
               for config, signal in calls]
    assert cqt._direct_plan.cache_info().currsize == 4
    for (config, signal), result in zip(calls, results):
        cqt._direct_plan.cache_clear()
        assert np.array_equal(result, cqt_spectrogram(signal, config).magnitudes)


@pytest.mark.parametrize("n", [1500, 1501])
def test_dirichlet_matches_its_sum(n):
    u = np.array([0.0, 1e-9, 0.3 / n, -2.5 / n, 0.02, -0.5, 0.9])
    expected = np.exp(2j * np.pi * np.outer(u, np.arange(n))).sum(axis=1)
    got = cqt._dirichlet(u, n) * np.exp(1j * np.pi * u * (n - 1))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9 * n)


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
