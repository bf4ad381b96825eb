import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    NOT_FEATURES,
    RATE,
    SMALL_CQT,
    noise_signal,
    reference_dct_truncate,
    reference_uniform_resample,
    save_npy,
)
from spoofmeter import (
    AudioSignal,
    CqccConfig,
    CqtConfig,
    FeatureConfig,
    FeatureMatrix,
    append_deltas,
    cmvn,
    cqt_spectrogram,
    dct_truncate,
    default_feature_config,
    extract_features,
    log_power,
    read_feature_cache,
    resample,
    uniform_resample,
    write_feature_cache,
)
from spoofmeter.cqt import CqtSpectrogram
from spoofmeter.errors import (
    ConfigError,
    GridTooSmallError,
    SignalTooShortError,
    TooFewBinsError,
)
from spoofmeter.features import (POWER_FLOOR, _CEPSTRA_FRAMES, _dct_basis,
                                  static_cepstra)


def _spec_from(mags):
    mags = np.asarray(mags, dtype=float)
    k = mags.shape[1]
    freqs = 500.0 * 2.0 ** (np.arange(k) / 12.0)
    return CqtSpectrogram(magnitudes=mags, center_freqs=freqs,
                          frame_times=np.arange(mags.shape[0]) * 0.01)


class TestLogPower:
    def test_unit_magnitude(self):
        out = log_power(_spec_from([[1.0, 1.0]]))
        assert np.allclose(out, 0.0)

    def test_floor_engages_on_zero(self):
        out = log_power(_spec_from([[0.0]]))
        assert np.allclose(out, np.log(1e-20))
        assert abs(out[0, 0] - (-46.0517)) < 1e-3

    def test_scaling_adds_constant(self):
        rng = np.random.default_rng(5)
        mags = rng.uniform(0.1, 2.0, size=(4, 7))
        base = log_power(_spec_from(mags))
        scaled = log_power(_spec_from(10.0 * mags))
        assert np.allclose(scaled - base, np.log(100.0))

    def test_equals_the_three_array_expression_in_one_array(self):
        mags = np.random.default_rng(26).uniform(0.0, 2.0, (300, 48))
        mags[::7, ::5] = 0.0
        mags[3, :10] = 1e-12  # below the floor once squared
        spec = _spec_from(mags)
        tracemalloc.start()
        try:
            out = log_power(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = np.log(np.maximum(mags ** 2, POWER_FLOOR))
        assert out.tobytes() == expected.tobytes()
        assert peak < 1.1 * out.nbytes


class TestUniformResample:
    def test_constant_spectrum(self):
        k = 24
        out, grid = uniform_resample(np.full((3, k), 2.5),
                                     500.0 * 2 ** (np.arange(k) / 12.0), 16)
        assert np.allclose(out, 2.5)
        assert grid.shape[0] == out.shape[1]

    def test_linear_spectrum_exact(self):
        k = 24
        freqs = 500.0 * 2 ** (np.arange(k) / 12.0)
        line = 3e-4 * freqs - 1.0
        out, grid = uniform_resample(np.vstack([line, 2 * line]), freqs, 16)
        assert np.max(np.abs(out[0] - (3e-4 * grid - 1.0))) < 1e-6
        assert np.max(np.abs(out[1] - 2 * (3e-4 * grid - 1.0))) < 1e-6

    def test_grid_construction(self):
        k = 24
        freqs = 500.0 * 2 ** (np.arange(k) / 12.0)
        _, grid = uniform_resample(np.zeros((1, k)), freqs, 16)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == freqs[0]
        assert grid[-1] == freqs[-1]
        # period anchored to the lowest octave: d * 2**(octaves-1) points
        octaves = np.log2(freqs[-1] / freqs[0])
        assert grid.shape[0] == int(np.ceil(16 * 2.0 ** (octaves - 1)))

    def test_pinned_grid_size(self):
        k = 24
        freqs = 500.0 * 2 ** (np.arange(k) / 12.0)
        out, grid = uniform_resample(np.zeros((2, k)), freqs, 16, n_points=77)
        assert out.shape == (2, 77) and grid.shape == (77,)

    def test_too_few_bins(self):
        with pytest.raises(TooFewBinsError):
            uniform_resample(np.zeros((1, 1)), [100.0], 16)

    def test_spectrum_that_does_not_match_the_bins(self):
        freqs = 500.0 * 2 ** (np.arange(4) / 12.0)
        with pytest.raises(ValueError, match="matching center_freqs"):
            uniform_resample(np.zeros((2, 5)), freqs, 16)

    def test_grid_of_one_point(self):
        freqs = 500.0 * 2 ** (np.arange(4) / 12.0)
        with pytest.raises(ConfigError, match="at least 2 points"):
            uniform_resample(np.zeros((2, 4)), freqs, 16, n_points=1)

    def test_two_bins_give_the_straight_line(self):
        freqs = np.array([500.0, 1000.0])
        out, grid = uniform_resample(np.array([[-3.0, 2.0]]), freqs, 16,
                                     n_points=9)
        line = -3.0 + 5.0 * (grid - 500.0) / 500.0
        assert np.max(np.abs(out[0] - line)) < 1e-12

    def test_three_bins_reproduce_a_quadratic(self):
        freqs = np.array([500.0, 1000.0, 2000.0])

        def quadratic(f):
            return 2e-6 * (f - 1200.0) ** 2 - 0.5 + 1e-3 * f

        out, grid = uniform_resample(quadratic(freqs)[None, :], freqs, 16,
                                     n_points=13)
        assert np.max(np.abs(out[0] - quadratic(grid))) < 1e-9

    def test_matches_the_cubic_spline_on_the_default_grid(self):
        # 890 frames: the 8.9 s utterance of the benchmark's paper-frontend.
        config = default_feature_config()
        freqs = config.cqt.center_freqs
        log_spec = np.random.default_rng(24).uniform(
            -46.0, 0.0, (890, freqs.shape[0]))
        out, grid = uniform_resample(log_spec, freqs, 16,
                                     n_points=config.effective_grid_size)
        expected = reference_uniform_resample(log_spec, freqs, grid)
        assert out.shape == expected.shape == (890, 4067)
        assert np.max(np.abs(out - expected)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        freqs = 500.0 * 2 ** (np.arange(6) / 12.0)
        log_spec = np.zeros((3, 6))
        log_spec[1, 4] = bad
        with pytest.raises(ValueError):
            uniform_resample(log_spec, freqs, 16, n_points=20)

    @pytest.mark.parametrize("freqs", [[500.0, 600.0, 600.0, 800.0, 900.0],
                                       [500.0, 600.0, 700.0, 650.0, 900.0],
                                       [900.0, 800.0, 700.0, 600.0, 500.0],
                                       [500.0, np.nan, 700.0, 800.0, 900.0]],
                             ids=["repeat", "descent", "decreasing", "nan"])
    def test_knots_that_do_not_strictly_increase_rejected(self, freqs):
        with pytest.raises(ValueError):
            uniform_resample(np.zeros((2, 5)), freqs, 16, n_points=20)

    def test_default_grid_peak_memory(self):
        # The output alone is 29 MB; a CubicSpline's (4, 863, 890)
        # coefficient array beside it would pass the bound.
        freqs = default_feature_config().cqt.center_freqs
        log_spec = np.random.default_rng(25).uniform(
            -46.0, 0.0, (890, freqs.shape[0]))
        tracemalloc.start()
        try:
            uniform_resample(log_spec, freqs, 16, n_points=4067)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestDctTruncate:
    def test_constant_input(self):
        L = 64
        out = dct_truncate(np.full((2, L), 1.5), 8, include_zeroth=True)
        assert out.shape == (2, 9)
        assert np.allclose(out[:, 0], 1.5 * np.sqrt(L))
        assert np.allclose(out[:, 1:], 0.0, atol=1e-12)

    def test_orthonormal_roundtrip(self):
        from scipy.fft import idct
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((3, 32))
        full = dct_truncate(mat, 31, include_zeroth=True)
        back = idct(full, type=2, norm="ortho", axis=1)
        assert np.max(np.abs(back - mat)) < 1e-9

    def test_paper_dimensionality(self):
        out = dct_truncate(np.zeros((1, 128)), 29, include_zeroth=True)
        assert out.shape[1] == 30

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            dct_truncate(np.zeros((1, 29)), 29, include_zeroth=False)

    @pytest.mark.parametrize("include_zeroth", [False, True])
    def test_matches_the_full_dct_on_the_default_grid(self, include_zeroth):
        # 4,067 points: the uniform grid of the default 96 x 9 front end.
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((40, 4067)) * 10.0 - 20.0
        out = dct_truncate(mat, 29, include_zeroth)
        expected = reference_dct_truncate(mat, 29, include_zeroth)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) < 1e-10

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_without_c0_is_the_c0_result_minus_its_column(self, order):
        # The spline hands over an F-ordered view; the benchmark's traced
        # pass drops c0 here, the untraced front end after this call.
        rng = np.random.default_rng(9)
        mat = np.asarray(rng.standard_normal((300, 4067)), order=order)
        assert (dct_truncate(mat, 29, False).tobytes()
                == dct_truncate(mat, 29, True)[:, 1:].tobytes())

    def test_basis_is_cached_read_only(self):
        basis = _dct_basis(4067, 29)
        assert basis.shape == (4067, 30)
        assert not basis.flags.writeable
        assert _dct_basis(4067, 29) is basis


class TestDeltas:
    def test_constant_sequence(self):
        config = CqccConfig(num_ceps=4, use_static=True, use_delta=True,
                            use_delta2=True)
        feats = append_deltas(np.ones((6, 5)), config)
        assert np.allclose(feats.frames[:, 5:], 0.0)

    def test_single_frame(self):
        config = CqccConfig(num_ceps=4, use_delta=True, use_delta2=True,
                            use_static=False)
        feats = append_deltas(np.array([[1.0, 2.0, 3.0]]), config)
        assert np.allclose(feats.frames, 0.0)

    def test_no_frames(self):
        config = CqccConfig(num_ceps=4, use_delta=True)
        with pytest.raises(ValueError, match="at least one frame"):
            append_deltas(np.zeros((0, 5)), config)

    def test_linear_ramp_slope(self):
        # Oracle: the 5-frame regression of x_t = a*t has slope a everywhere
        # away from the replicated edges.
        a = 0.7
        ramp = (a * np.arange(20))[:, None] * np.ones((1, 3))
        config = CqccConfig(num_ceps=2, use_static=False, use_delta=True,
                            use_delta2=False)
        feats = append_deltas(ramp, config)
        assert np.max(np.abs(feats.frames[2:-2] - a)) < 1e-9

    def test_block_order_static_delta_delta2(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((10, 4))
        all_blocks = append_deltas(
            base, CqccConfig(num_ceps=3, use_static=True, use_delta=True,
                             use_delta2=True))
        assert np.array_equal(all_blocks.frames[:, :4], base)
        delta_only = append_deltas(
            base, CqccConfig(num_ceps=3, use_static=False, use_delta=True,
                             use_delta2=False))
        assert np.array_equal(all_blocks.frames[:, 4:8], delta_only.frames)


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(8)
        feats = cmvn(FeatureMatrix(rng.standard_normal((50, 6)) * 3 + 1))
        assert np.max(np.abs(feats.frames.mean(axis=0))) < 1e-9
        assert np.max(np.abs(feats.frames.var(axis=0) - 1.0)) < 1e-9

    def test_constant_dimension_zeroed(self):
        mat = np.random.default_rng(9).standard_normal((20, 3))
        mat[:, 1] = 4.2
        feats = cmvn(FeatureMatrix(mat))
        assert np.all(feats.frames[:, 1] == 0.0)

    def test_no_frames(self):
        with pytest.raises(ValueError, match="cmvn needs at least one frame"):
            cmvn(FeatureMatrix(np.zeros((0, 3))))

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        once = cmvn(FeatureMatrix(rng.standard_normal((30, 4))))
        twice = cmvn(once)
        assert np.max(np.abs(twice.frames - once.frames)) < 1e-9


def _extract_small(signal, cqcc_config):
    return extract_features(FeatureConfig(RATE, SMALL_CQT, cqcc_config),
                            signal)


class TestExtractCqcc:
    def test_full_config_gives_90_dims(self):
        sig = noise_signal(np.random.default_rng(11), 4000)
        config = CqccConfig(num_ceps=29, include_zeroth=True, use_static=True,
                            use_delta=True, use_delta2=True)
        feats = _extract_small(sig, config)
        assert feats.dim == 90

    def test_delta_only_config_gives_58_dims(self):
        sig = noise_signal(np.random.default_rng(12), 4000)
        feats = _extract_small(sig, CqccConfig())
        assert feats.dim == 58

    @pytest.mark.parametrize("zeroth,static,delta,delta2", [
        (False, True, False, False),
        (False, False, True, False),
        (False, False, False, True),
        (False, False, True, True),
        (False, True, True, False),
        (False, True, False, True),
        (False, True, True, True),
        (True, True, True, True),
    ])
    def test_dimension_formula_all_variants(self, zeroth, static, delta, delta2):
        sig = noise_signal(np.random.default_rng(13), 4000)
        config = CqccConfig(num_ceps=29, include_zeroth=zeroth,
                            use_static=static, use_delta=delta,
                            use_delta2=delta2)
        feats = _extract_small(sig, config)
        assert feats.dim == (29 + zeroth) * (static + delta + delta2)

    def test_short_signal_rejected(self):
        needed = SMALL_CQT.window_lengths(RATE)[0]
        with pytest.raises(SignalTooShortError):
            _extract_small(AudioSignal(np.zeros(needed - 1), RATE),
                           CqccConfig())

    def test_deterministic_without_cmvn(self):
        sig = noise_signal(np.random.default_rng(14), 5000)
        config = CqccConfig(num_ceps=12, include_zeroth=True, use_static=True)
        a = _extract_small(sig, config)
        b = _extract_small(sig, config)
        assert np.array_equal(a.frames, b.frames)

    def test_amplitude_scaling_moves_only_zeroth_static_column(self):
        sig = noise_signal(np.random.default_rng(15), 5000, amplitude=0.4)
        config = CqccConfig(num_ceps=10, include_zeroth=True, use_static=True,
                            use_delta=True, use_delta2=True)
        base = _extract_small(sig, config).frames
        scaled = _extract_small(AudioSignal(2.0 * sig.samples, RATE),
                                config).frames
        diff = scaled - base
        grid = uniform_resample(
            log_power(cqt_spectrogram(sig, SMALL_CQT)),
            SMALL_CQT.center_freqs, config.resample_period)[1]
        expected_shift = np.log(4.0) * np.sqrt(grid.shape[0])
        assert np.allclose(diff[:, 0], expected_shift, atol=1e-7)
        assert np.max(np.abs(diff[:, 1:])) < 1e-7

    @pytest.mark.parametrize("apply_cmvn", [False, True])
    def test_equals_the_stage_by_stage_composition(self, apply_cmvn):
        # The benchmark's traced pass re-composes the front end from these
        # public calls and requires bit-identity with extract_features.
        sig = noise_signal(np.random.default_rng(18), 5500, rate=22050)
        config = FeatureConfig(RATE, SMALL_CQT, CqccConfig(
            num_ceps=10, include_zeroth=True, use_static=True,
            apply_cmvn=apply_cmvn))
        resampled = resample(sig, RATE)
        uniform, _ = uniform_resample(
            log_power(cqt_spectrogram(resampled, SMALL_CQT)),
            SMALL_CQT.center_freqs, config.cqcc.resample_period,
            n_points=config.effective_grid_size)
        expected = append_deltas(
            dct_truncate(uniform, 10, include_zeroth=True), config.cqcc,
            source_id="u")
        if apply_cmvn:
            expected = cmvn(expected)
        feats = extract_features(config, sig, source_id="u")
        assert feats.source_id == "u"
        assert feats.frames.tobytes() == expected.frames.tobytes()

    def test_frame_count_ignores_content(self):
        # No activity detection: frames depend only on length and hop.
        quiet = AudioSignal(np.full(4000, 1e-6), RATE)
        loud = noise_signal(np.random.default_rng(16), 4000)
        config = CqccConfig(num_ceps=8, use_static=True, use_delta=False,
                            use_delta2=False)
        assert _extract_small(quiet, config).n_frames \
            == _extract_small(loud, config).n_frames


@pytest.fixture(scope="module")
def default_utterance():
    """The default front end and 8.9 s of noise at 16 kHz: 890 frames."""
    config = default_feature_config()
    signal = noise_signal(np.random.default_rng(27), 142400)
    return config, signal


class TestStaticCepstra:
    def test_blocks_equal_the_whole_array_composition(self, default_utterance):
        # The benchmark's smoke run and its grid-em and score-batch
        # utterances fit in one block; here the edges of six are crossed.
        config, signal = default_utterance
        uniform, _ = uniform_resample(
            log_power(cqt_spectrogram(signal, config.cqt)),
            config.cqt.center_freqs, config.cqcc.resample_period,
            n_points=config.effective_grid_size)
        assert uniform.shape == (890, 4067)
        assert 890 // _CEPSTRA_FRAMES > 1
        expected = dct_truncate(uniform, config.cqcc.num_ceps, True)
        out = static_cepstra(config, signal)
        assert out.tobytes() == expected.tobytes()

    def test_default_grid_peak_memory(self, default_utterance):
        # The whole (890, 4067) resampled spectrogram alone is 29 MB and
        # put the peak at 47.7 MB; in blocks the CQT sets it at 19.1 MB.
        config, signal = default_utterance
        static_cepstra(config, signal)  # the CQT plan and DCT basis cached
        tracemalloc.start()
        try:
            static_cepstra(config, signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestConfigValidation:
    def test_no_blocks_rejected(self):
        with pytest.raises(ConfigError):
            CqccConfig(use_static=False, use_delta=False, use_delta2=False)

    @pytest.mark.parametrize("cqt, cqcc, grid_size, message", [
        (CqtConfig(1, 5000.0, 8000.0, 160), CqccConfig(num_ceps=1), None,
         "CQT grid of 1 bin"),
        # One grid point per bin: 4 octaves of 12 bins derive 8 points.
        (SMALL_CQT, CqccConfig(resample_period=1), None,
         "uniform grid of 8 points cannot yield 29"),
        (SMALL_CQT, CqccConfig(), 8, "uniform grid of 8 points cannot yield 29"),
        (SMALL_CQT, CqccConfig(num_ceps=1), 1, "uniform grid of 1 points"),
        (SMALL_CQT, CqccConfig(), 2 ** 17 + 1,
         "uniform grid of 1.31e\\+05 points exceeds the limit of 131072"),
    ], ids=["one-bin", "derived-grid", "pinned-grid", "one-point",
            "pinned-grid-over-cap"])
    def test_front_end_that_cannot_run_is_refused(self, cqt, cqcc, grid_size,
                                                  message):
        with pytest.raises(ConfigError, match=message):
            FeatureConfig(RATE, cqt, cqcc, grid_size=grid_size)

    def test_non_positive_rate_fails_the_nyquist_rule(self):
        with pytest.raises(ConfigError, match="exceeds Nyquist for 0 Hz"):
            FeatureConfig(0, SMALL_CQT, CqccConfig())

    def test_output_dim_property(self):
        config = CqccConfig(num_ceps=29, include_zeroth=True, use_static=True,
                            use_delta=True, use_delta2=True)
        assert config.output_dim == 90


class TestFeatureCache:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        feats = FeatureMatrix(rng.standard_normal((23, 9)), source_id="u1")
        path = tmp_path / "u1.feat"
        write_feature_cache(path, feats)
        back = read_feature_cache(path, source_id="u1")
        assert np.array_equal(back.frames, feats.frames)
        assert back.source_id == "u1"

    def test_header_magic_checked(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError):
            read_feature_cache(path)

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_feature_cache(tmp_path / "absent.feat")

    def test_truncation_detected(self, tmp_path):
        feats = FeatureMatrix(np.zeros((4, 3)))
        path = tmp_path / "t.feat"
        write_feature_cache(path, feats)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_feature_cache(path)

    @pytest.mark.parametrize("kind", NOT_FEATURES)
    def test_valid_npy_that_is_not_features_names_file(self, tmp_path, kind):
        array, reason = NOT_FEATURES[kind]
        path = tmp_path / "e.feat"
        save_npy(path, array)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unreadable feature cache entry")) as info:
            read_feature_cache(path)
        assert reason in str(info.value)
