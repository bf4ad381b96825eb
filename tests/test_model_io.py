import json
import re

import numpy as np
import pytest

from helpers import make_wav_corpus, resonant_noise, small_feature_config
from spoofmeter import (
    FeatureMatrix,
    GmmTrainConfig,
    llr_score,
    load_model,
    parse_manifest,
    save_model,
    train_detector,
)
from spoofmeter.errors import SchemaError, VersionMismatchError


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("model_io_corpus")
    rng = np.random.default_rng(50)
    nat = parse_manifest(make_wav_corpus(root / "n", [
        (f"n{i}", "bonafide", "-",
         resonant_noise(rng, 4000, freq_range=(300.0, 900.0)))
        for i in range(3)]))
    art = parse_manifest(make_wav_corpus(root / "a", [
        (f"a{i}", "spoof", "vc1",
         resonant_noise(rng, 4000, freq_range=(2500.0, 3800.0)))
        for i in range(3)]))
    config = small_feature_config(num_ceps=6, include_zeroth=True,
                                  use_static=True)
    return train_detector(nat, art, config,
                          GmmTrainConfig(target_components=2,
                                         em_iters_per_stage=4))


def test_save_load_save_byte_identical(model, tmp_path):
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_scores_bit_exact_after_roundtrip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(51)
    dim = model.feature_config.output_dim
    for _ in range(20):
        feats = FeatureMatrix(rng.standard_normal((12, dim)))
        assert llr_score(loaded, feats) == llr_score(model, feats)


def test_version_mismatch(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_truncated_file(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-200])
    with pytest.raises(SchemaError):
        load_model(path)


def test_missing_key(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["nat_gmm"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


def test_malformed_gmm_arrays(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["nat_gmm"]["weights"] = [0.4, 0.4]  # no longer sums to 1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


def test_feature_config_disagreeing_with_the_gmms_names_file(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["feature_config"]["cqcc"]["num_ceps"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(str(path))):
        load_model(path)


@pytest.mark.parametrize("size", [1, -5])
def test_grid_of_fewer_than_two_points_names_file(model, tmp_path, size):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["grid"]["size"] = size
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(str(path))):
        load_model(path)


def test_grid_descriptor_restored(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.feature_config.grid_size \
        == model.feature_config.effective_grid_size
    assert loaded.metadata == model.metadata


@pytest.mark.parametrize("section, key, value", [
    ("cqcc", "use_delta", "false"),
    ("cqcc", "num_ceps", 6.0),
    ("cqt", "hop", True),
    ("cqt", "bins_per_octave_typo", 12),
])
def test_mistyped_config_rejected(model, tmp_path, section, key, value):
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["feature_config"][section][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=key):
        load_model(path)


def test_save_refuses_what_load_would_reject(model, tmp_path):
    from dataclasses import replace
    from spoofmeter.errors import ConfigError

    config = model.feature_config
    bad = replace(model, feature_config=replace(
        config, cqcc=replace(config.cqcc, include_zeroth=1)))
    with pytest.raises(ConfigError, match="include_zeroth"):
        save_model(bad, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()
