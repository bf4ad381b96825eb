"""Property tests: round trips that must hold for every valid input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofmeter import (
    CqccConfig,
    CqtConfig,
    DetectorModel,
    DiagGmm,
    load_model,
    save_model,
)
from spoofmeter.detector import FeatureConfig
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


@st.composite
def feature_configs(draw):
    rate = draw(st.sampled_from([8000, 16000, 22050, 44100]))
    f_max = draw(_number(rate / 8.0, rate / 2.0))
    f_min = draw(_number(20.0, f_max / 2.0))
    cqt = CqtConfig(draw(st.integers(1, 48)), f_min, f_max,
                    draw(st.integers(1, 1000)))
    blocks = draw(st.lists(st.booleans(), min_size=3, max_size=3)
                  .filter(any))
    cqcc = CqccConfig(num_ceps=draw(st.integers(1, 40)),
                      include_zeroth=draw(st.booleans()),
                      use_static=blocks[0], use_delta=blocks[1],
                      use_delta2=blocks[2],
                      apply_cmvn=draw(st.booleans()),
                      resample_period=draw(st.integers(1, 32)))
    grid_size = draw(st.one_of(st.none(), st.integers(2, 512)))
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


def test_write_table_refuses_wrong_width(scratch):
    with pytest.raises(ValueError):
        write_table(scratch / "w.tsv", COLUMNS, [["a", "b"]])
