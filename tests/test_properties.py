"""Property tests: round trips that must hold for every valid input."""

import json
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (RATE, SMALL_CQT, reference_dct_truncate,
                     reference_uniform_resample, small_feature_config,
                     write_pcm16_wav)
from spoofmeter import (
    AudioSignal,
    CqccConfig,
    CqtConfig,
    DetectorModel,
    DiagGmm,
    FeatureMatrix,
    append_deltas,
    compute_eer,
    cqt_spectrogram,
    features,
    llr_score,
    load_model,
    log_power,
    read_wav,
    save_model,
)
from spoofmeter.errors import ConfigError
from spoofmeter.features import (
    _CEPSTRA_FRAMES,
    FeatureConfig,
    dct_truncate,
    default_grid_size,
    extract_features,
    features_for_file,
    read_feature_cache,
    static_cepstra,
    static_front_end,
    uniform_resample,
    write_feature_cache,
)
from spoofmeter.model_io import _array_doc, _array_from_doc
from spoofmeter.tables import read_table, write_table

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


# --- model files -----------------------------------------------------------

def _number(lo, hi):
    """An int or a float in [lo, hi]: the Python API takes either."""
    return st.one_of(st.integers(int(np.ceil(lo)), int(hi)),
                     st.floats(lo, hi, allow_nan=False))


def _cqcc(draw, num_ceps, resample_period):
    blocks = draw(st.lists(st.booleans(), min_size=3, max_size=3)
                  .filter(any))
    return CqccConfig(num_ceps=num_ceps, include_zeroth=draw(st.booleans()),
                      use_static=blocks[0], use_delta=blocks[1],
                      use_delta2=blocks[2], apply_cmvn=draw(st.booleans()),
                      resample_period=resample_period)


@st.composite
def feature_configs(draw):
    """Usable front ends only: at least 2 CQT bins, and a grid of at least
    ``num_ceps + 1`` points, as :class:`FeatureConfig` requires."""
    rate = draw(st.sampled_from([8000, 16000, 22050, 44100]))
    f_max = draw(_number(rate / 8.0, rate / 2.0))
    f_min = draw(_number(20.0, f_max / 2.0))
    cqt = CqtConfig(draw(st.integers(1, 48)), f_min, f_max,
                    draw(st.integers(1, 1000)))
    # One bin only at 1 bin per octave over exactly one octave.
    assume(cqt.n_bins >= 2)
    period = draw(st.integers(1, 32))
    grid_size = draw(st.one_of(st.none(), st.integers(2, 512)))
    grid = grid_size or default_grid_size(cqt.center_freqs, period)
    cqcc = _cqcc(draw, draw(st.integers(1, min(40, grid - 1))), period)
    return FeatureConfig(rate, cqt, cqcc, grid_size=grid_size)


def _gmm(rng, n_components, dim):
    weights = rng.random(n_components) + 0.1
    return DiagGmm(weights=weights / weights.sum(),
                   means=rng.standard_normal((n_components, dim)) * 10.0,
                   variances=rng.random((n_components, dim)) + 1e-3)


@PROPERTY_SETTINGS
@given(config=feature_configs(), seed=st.integers(0, 2**32 - 1),
       n_components=st.integers(1, 3),
       metadata=st.dictionaries(st.text(max_size=8), st.text(max_size=8),
                                max_size=3))
def test_save_load_save_is_byte_identical(scratch, config, seed, n_components,
                                          metadata):
    rng = np.random.default_rng(seed)
    dim = config.output_dim
    model = DetectorModel(_gmm(rng, n_components, dim),
                          _gmm(rng, n_components, dim), config, metadata)
    first, second = scratch / "first.json", scratch / "second.json"
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.feature_config == config.pinned()


def _gmm_arrays(gmm):
    return gmm.weights, gmm.means, gmm.variances, *gmm._fused_tables


@PROPERTY_SETTINGS
@given(config=feature_configs(), seed=st.integers(0, 2**32 - 1),
       n_components=st.integers(1, 3),
       metadata=st.dictionaries(st.text(max_size=8), st.text(max_size=8),
                                max_size=3))
def test_pickle_ships_three_arrays_and_rebuilds_the_tables(
        config, seed, n_components, metadata):
    rng = np.random.default_rng(seed)
    dim = config.output_dim
    model = DetectorModel(_gmm(rng, n_components, dim),
                          _gmm(rng, n_components, dim), config, metadata)
    loaded = pickle.loads(pickle.dumps(model))
    assert loaded.feature_config == model.feature_config
    assert loaded.metadata == model.metadata
    for gmm, back in ((model.nat, loaded.nat), (model.artif, loaded.artif)):
        for array, rebuilt in zip(_gmm_arrays(gmm), _gmm_arrays(back),
                                  strict=True):
            assert rebuilt.shape == array.shape
            assert rebuilt.tobytes() == array.tobytes()
        # The default pickle of a dataclass would ship its whole __dict__.
        assert len(pickle.dumps(gmm)) < len(pickle.dumps(vars(gmm)))


# --- front ends ------------------------------------------------------------

# Bounds that keep one example within about 50 MB and the test within
# seconds: the signal is the bin-0 window, at most this many samples long,
# no per-frame stage holds more than _MAX_CELLS floats, and a hop of at
# least 32 samples keeps the direct form's block products few.
_MAX_WINDOW = 16000
_MAX_CELLS = 2_000_000


@st.composite
def front_end_parts(draw):
    """Arguments of :class:`FeatureConfig`, usable or not: grids of one bin
    and grids shorter than the cepstral order are drawn too."""
    rate = draw(st.sampled_from([8000, 16000, 22050, 44100]))
    bins_per_octave = draw(st.integers(1, 48))
    q_factor = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    f_max = draw(_number(rate / 8.0, rate / 2.0))
    lowest = max(20.0, q_factor * rate / (_MAX_WINDOW - 1))
    assume(lowest < 0.99 * f_max)
    f_min = draw(_number(lowest, 0.99 * f_max))
    cqt = CqtConfig(bins_per_octave, f_min, f_max, draw(st.integers(32, 1000)))
    assume(cqt.window_lengths(rate)[0] <= _MAX_WINDOW)
    cqcc = _cqcc(draw, draw(st.integers(1, 40)), draw(st.integers(1, 32)))
    grid_size = draw(st.one_of(st.none(), st.integers(1, 512)))
    return rate, cqt, cqcc, grid_size


def _usable_front_end(parts):
    """``(config, samples, frames)`` of the test signal of ``FeatureConfig(
    *parts)``, the bin-0 window, or ``None`` if the config does not
    construct. Examples beyond ``_MAX_CELLS`` are rejected."""
    try:
        config = FeatureConfig(*parts)
    except ConfigError:
        return None
    n_samples = int(config.cqt.window_lengths(config.sample_rate)[0])
    n_frames = (n_samples - 1) // config.cqt.hop + 1
    assume(n_frames * max(config.cqt.n_bins, config.effective_grid_size)
           <= _MAX_CELLS)
    return config, n_samples, n_frames


@PROPERTY_SETTINGS
@given(parts=front_end_parts(), seed=st.integers(0, 2**32 - 1))
# 5 to 8 kHz at 1 bin per octave: a CQT grid of 1 bin.
@example(parts=(16000, CqtConfig(1, 5000.0, 8000.0, 160),
                CqccConfig(num_ceps=1), None), seed=0)
# 4 octaves at 12 bins and one grid point per bin: 8 points for 29 ceps.
@example(parts=(16000, CqtConfig(12, 500.0, 8000.0, 160),
                CqccConfig(resample_period=1), None), seed=0)
def test_every_config_that_constructs_extracts_finite_features(parts, seed):
    usable = _usable_front_end(parts)
    if usable is None:
        return
    config, n_samples, n_frames = usable
    rng = np.random.default_rng(seed)
    signal = AudioSignal(rng.uniform(-0.5, 0.5, n_samples), config.sample_rate)
    feats = extract_features(config, signal)
    assert feats.frames.shape == (n_frames, config.output_dim)
    assert np.all(np.isfinite(feats.frames))


@PROPERTY_SETTINGS
@given(parts=front_end_parts(), seed=st.integers(0, 2**32 - 1),
       other_num_ceps=st.booleans())
def test_features_for_file_fills_one_entry_per_config(scratch, parts, seed,
                                                      other_num_ceps):
    """``features_for_file`` over several configs, as ``grid`` fills its
    store: every config's features equal ``extract_features``' bit for bit,
    written and read back, one entry each, from one ``static_cepstra`` per
    distinct static front end."""
    usable = _usable_front_end(parts)
    if usable is None:
        return
    config, n_samples, _ = usable
    # Other blocks, c0 and CMVN: the same static cepstra.
    configs = [config, static_front_end(config), replace(
        config, cqcc=replace(config.cqcc,
                             include_zeroth=not config.cqcc.include_zeroth,
                             apply_cmvn=not config.cqcc.apply_cmvn))]
    if other_num_ceps:
        try:
            configs.append(replace(config, cqcc=replace(
                config.cqcc, num_ceps=config.cqcc.num_ceps - 1 or 2)))
        except ConfigError:  # a grid too small for 2 coefficients
            assume(False)
    configs = list(dict.fromkeys(configs))
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        wav, store = str(Path(directory) / "u.wav"), Path(directory) / "store"
        write_pcm16_wav(wav, rng.uniform(-0.5, 0.5, n_samples),
                        config.sample_rate)
        signal = read_wav(wav)
        expected = [extract_features(c, signal).frames for c in configs]
        calls = []

        def counting(*args):
            calls.append(args)
            return static_cepstra(*args)

        for computed in (1 + other_num_ceps, 0):  # write, then read back
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(features, "static_cepstra", counting)
                feats = features_for_file(configs, wav, "u", store)
            assert len(calls) == computed
            assert len(list(store.iterdir())) == len(configs)
            for got, want in zip(feats, expected, strict=True):
                assert got.source_id == "u"
                assert got.frames.shape == want.shape
                assert got.frames.tobytes() == want.tobytes()


_FINFO = np.finfo(np.float64)


@PROPERTY_SETTINGS
@given(array=arrays(np.float64, st.lists(st.integers(0, 5), max_size=3)
                    .map(tuple),
                    elements=st.one_of(
                        st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308,
                                         _FINFO.max, -_FINFO.max,
                                         _FINFO.tiny]),
                        st.floats(allow_nan=False, allow_infinity=False))))
def test_model_array_codec_is_bit_exact(array):
    doc = json.loads(json.dumps(_array_doc(array)))
    back = _array_from_doc(doc, 2, "array")
    assert back.dtype == np.float64 and back.shape == array.shape
    assert back.tobytes() == array.tobytes()


@PROPERTY_SETTINGS
@given(n_points=st.integers(2, 4096), data=st.data(),
       seed=st.integers(0, 2**32 - 1), include_zeroth=st.booleans())
def test_dct_truncate_matches_the_full_dct(n_points, data, seed,
                                          include_zeroth):
    # Up to 64 coefficients keeps each cached basis within 2 MB.
    num_ceps = data.draw(st.integers(1, min(n_points - 1, 64)))
    mat = np.random.default_rng(seed).standard_normal((3, n_points)) * 10.0
    out = dct_truncate(mat, num_ceps, include_zeroth)
    expected = reference_dct_truncate(mat, num_ceps, include_zeroth)
    assert out.shape == expected.shape
    assert np.max(np.abs(out - expected)) < 1e-10


_BLOCK = _CEPSTRA_FRAMES


@PROPERTY_SETTINGS
@given(n_frames=st.integers(1, 5 * _BLOCK), num_ceps=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(n_frames=_BLOCK - 1, num_ceps=29, seed=0)
@example(n_frames=_BLOCK, num_ceps=29, seed=0)
@example(n_frames=_BLOCK + 1, num_ceps=29, seed=0)
@example(n_frames=2 * _BLOCK - 1, num_ceps=29, seed=0)
@example(n_frames=2 * _BLOCK, num_ceps=29, seed=0)
@example(n_frames=4 * _BLOCK + 3, num_ceps=29, seed=0)
def test_frame_blocks_equal_the_whole_array_composition(n_frames, num_ceps,
                                                        seed):
    # extract_features runs the spline and DCT on blocks of frames; here
    # they see the whole spectrogram at once.
    config = FeatureConfig(RATE, SMALL_CQT, CqccConfig(
        num_ceps=num_ceps, include_zeroth=True, use_static=True))
    n_samples = max(int(SMALL_CQT.window_lengths(RATE)[0]),
                    (n_frames - 1) * SMALL_CQT.hop + 1)
    rng = np.random.default_rng(seed)
    signal = AudioSignal(rng.uniform(-0.5, 0.5, n_samples), RATE)
    uniform, _ = uniform_resample(
        log_power(cqt_spectrogram(signal, SMALL_CQT)), SMALL_CQT.center_freqs,
        config.cqcc.resample_period, n_points=config.effective_grid_size)
    expected = append_deltas(dct_truncate(uniform, num_ceps, True),
                             config.cqcc)
    feats = extract_features(config, signal)
    assert feats.n_frames == max(n_frames, 4)
    assert feats.frames.tobytes() == expected.frames.tobytes()


@st.composite
def spline_knots(draw):
    """Strictly increasing knots, 2 to 300 of them, whose gaps lie within a
    factor of 10 of each other; CQT knots, a geometric progression, are the
    usual case. Wider gap ratios make the not-a-knot system ill-conditioned,
    where any two evaluations, this one and ``CubicSpline`` alike, lose
    digits to rounding."""
    n_bins = draw(st.integers(2, 300))
    start = draw(st.floats(0.0, 1e4))
    unit = 10.0 ** draw(st.floats(-3.0, 3.0))
    gaps = draw(arrays(np.float64, n_bins - 1, elements=st.floats(1.0, 10.0)))
    return start + np.concatenate([[0.0], np.cumsum(unit * gaps)])


@PROPERTY_SETTINGS
@given(knots=spline_knots(), n_points=st.integers(2, 4096), data=st.data())
def test_uniform_resample_matches_the_cubic_spline(knots, n_points, data):
    log_spec = data.draw(arrays(np.float64, (3, knots.shape[0]),
                                elements=st.floats(-1e6, 1e6)))
    out, grid = uniform_resample(log_spec, knots, 16, n_points=n_points)
    expected = reference_uniform_resample(log_spec, knots, grid)
    assert out.shape == expected.shape == (3, n_points)
    assert (np.max(np.abs(out - expected))
            < 1e-10 * (1.0 + np.max(np.abs(log_spec))))


# --- tables ----------------------------------------------------------------

COLUMNS = ("first", "second", "third")

_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), max_size=6)


def _readable(row):
    line = "\t".join(row)
    return not line.startswith("#") and line.strip() != ""


def _read_back(path):
    return read_table(path, COLUMNS, lambda *cells: list(cells))


@PROPERTY_SETTINGS
@given(rows=st.lists(st.lists(_CELL_TEXT, min_size=3, max_size=3)
                     .filter(_readable), max_size=5),
       comments=st.lists(_CELL_TEXT, max_size=2))
def test_read_table_returns_written_rows(scratch, rows, comments):
    path = scratch / "table.tsv"
    write_table(path, COLUMNS, rows, comments)
    assert _read_back(path) == rows


@PROPERTY_SETTINGS
@given(rows=st.lists(st.lists(_ANY_TEXT, min_size=3, max_size=3),
                     min_size=1, max_size=4))
def test_write_table_refuses_what_would_not_read_back(scratch, rows):
    path = scratch / "any.tsv"
    breaks = any(ch in cell for row in rows for cell in row for ch in "\t\n\r")
    unreadable = breaks or not all(_readable(row) for row in rows)
    if unreadable:
        with pytest.raises(ValueError):
            write_table(path, COLUMNS, rows)
    else:
        write_table(path, COLUMNS, rows)
        assert _read_back(path) == rows


@pytest.mark.parametrize("comment", ["a\nb", "a\rb"])
def test_write_table_refuses_a_comment_with_a_line_break(scratch, comment):
    path = scratch / "c.tsv"
    with pytest.raises(ValueError, match="holds a line break"):
        write_table(path, COLUMNS, [["a", "b", "c"]], [comment])
    assert not path.exists()


def test_write_table_refuses_wrong_width(scratch):
    with pytest.raises(ValueError):
        write_table(scratch / "w.tsv", COLUMNS, [["a", "b"]])


# --- feature cache ---------------------------------------------------------

# Signed zeros and subnormals next to ordinary values: the entry must keep
# every bit, not just every value.
_FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY_SETTINGS
@given(frames=arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
                     elements=_FEATURE_VALUES))
def test_feature_cache_round_trip_is_bit_exact(scratch, frames):
    path = scratch / "entry.feat"
    write_feature_cache(path, FeatureMatrix(frames))
    back = read_feature_cache(path, source_id="u")
    assert back.frames.shape == frames.shape
    assert back.frames.tobytes() == frames.tobytes()
    assert back.source_id == "u"


@PROPERTY_SETTINGS
@given(cut=st.integers(0, 200), patch=st.binary(max_size=40),
       overwrite=st.booleans())
@example(cut=0, patch=b"", overwrite=False)
@example(cut=0, patch=b"PK\x03\x04", overwrite=False)  # zip magic: np.load's npz path
@example(cut=0, patch=b"CQCCFEAT" + bytes(16), overwrite=False)  # an older format
def test_damaged_feature_cache_entry_raises_value_error(scratch, cut, patch,
                                                        overwrite):
    path = scratch / "damaged.feat"
    write_feature_cache(path, FeatureMatrix(np.ones((3, 4))))
    data = path.read_bytes()
    rest = data[cut + len(patch):] if overwrite else b""
    path.write_bytes(data[:cut] + patch + rest)
    try:
        feats = read_feature_cache(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:  # the damage happened to leave a well-formed entry
        assert np.all(np.isfinite(feats.frames))


# --- EER -------------------------------------------------------------------

# Strictly increasing maps that are exact in float64 on the integer scores
# generated below, so they cannot merge two distinct scores into a tie.
_INCREASING_MAPS = st.one_of(
    st.integers(-6, 6).map(lambda k: lambda x: x * 2.0 ** k),
    st.integers(-10**6, 10**6).map(lambda c: lambda x: x + c),
    st.just(lambda x: x ** 3))

_INTEGER_SCORES = st.lists(st.integers(-1000, 1000), min_size=1, max_size=30)


@PROPERTY_SETTINGS
@given(bona=_INTEGER_SCORES, spoof=_INTEGER_SCORES, transform=_INCREASING_MAPS)
def test_eer_is_unchanged_by_increasing_maps(bona, spoof, transform):
    bona = np.array(bona, dtype=np.float64)
    spoof = np.array(spoof, dtype=np.float64)
    before = compute_eer(bona, spoof)
    after = compute_eer(transform(bona), transform(spoof))
    assert after.eer_percent == before.eer_percent
    assert (after.n_bonafide, after.n_spoof) == (before.n_bonafide, before.n_spoof)


# --- LLR -------------------------------------------------------------------

@st.composite
def diag_gmms(draw, dim):
    n_components = draw(st.integers(1, 3))
    weights = draw(arrays(np.float64, n_components, elements=st.floats(0.1, 1.0)))
    means = draw(arrays(np.float64, (n_components, dim),
                        elements=st.floats(-10.0, 10.0)))
    variances = draw(arrays(np.float64, (n_components, dim),
                            elements=st.floats(1e-2, 10.0)))
    return DiagGmm(weights / weights.sum(), means, variances)


@st.composite
def detector_cases(draw):
    dim = draw(st.integers(1, 4))
    config = small_feature_config(num_ceps=dim, use_static=True,
                                  use_delta=False, use_delta2=False)
    model = DetectorModel(draw(diag_gmms(dim)), draw(diag_gmms(dim)), config)
    frames = draw(arrays(np.float64, (draw(st.integers(1, 8)), dim),
                         elements=st.floats(-20.0, 20.0)))
    return model, FeatureMatrix(frames)


@PROPERTY_SETTINGS
@given(case=detector_cases())
def test_llr_negates_exactly_when_models_swap(case):
    model, feats = case
    swapped = DetectorModel(model.artif, model.nat, model.feature_config)
    assert llr_score(swapped, feats) == -llr_score(model, feats)
