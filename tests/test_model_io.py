import json
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_wav_corpus, resonant_noise, small_feature_config
from spoofmeter import (
    DetectorModel,
    DiagGmm,
    FeatureMatrix,
    GmmTrainConfig,
    llr_score,
    load_model,
    parse_manifest,
    save_model,
    train_detector,
)
from spoofmeter.errors import SchemaError, VersionMismatchError
from spoofmeter.model_io import _array_doc


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
    doc["nat_gmm"]["weights"] = _array_doc(np.array([0.4, 0.4]))
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="sum to 1"):
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


@pytest.mark.parametrize("edits, message", [
    # 5 to 8 kHz at 1 bin per octave: nothing for the spline to resample.
    ({("feature_config", "cqt", "bins_per_octave"): 1,
      ("feature_config", "cqt", "f_min"): 5000.0,
      ("feature_config", "cqt", "f_max"): 8000.0,
      ("grid", "f_min"): 5000.0, ("grid", "f_max"): 8000.0},
     "CQT grid of 1 bin"),
    ({("feature_config", "cqcc", "num_ceps"): 29, ("grid", "size"): 8},
     "uniform grid of 8 points cannot yield 29 cepstral coefficients"),
], ids=["cqt-bins", "grid-points"])
def test_front_end_that_cannot_run_names_file(model, tmp_path, edits,
                                              message):
    path = tmp_path / "m.json"
    doc = _saved_doc(model, path)
    for keys, value in edits.items():
        _set(doc, keys, value)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: ")
                       + ".*" + re.escape(message)):
        load_model(path)


def test_pinned_grid_is_checked_not_the_derived_one(model, tmp_path):
    # One grid point per bin derives 8 points, too few for 29 coefficients;
    # the pinned 64 are enough, so the model saves and loads.
    config = replace(model.feature_config, grid_size=64,
                     cqcc=replace(model.feature_config.cqcc, num_ceps=29,
                                  resample_period=1))
    dim = config.output_dim
    gmm = DiagGmm(np.ones(1), np.zeros((1, dim)), np.ones((1, dim)))
    path = tmp_path / "m.json"
    save_model(DetectorModel(gmm, gmm, config), path)
    assert load_model(path).feature_config == config


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


@pytest.mark.parametrize("metadata", [{"seed": 3}, {3: "seed"}, None],
                         ids=["int-value", "int-key", "none"])
def test_save_refuses_metadata_not_an_object_of_strings(model, tmp_path,
                                                         metadata):
    from dataclasses import replace

    path = tmp_path / "m.json"
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}: metadata must be an object of strings")):
        save_model(replace(model, metadata=metadata), path)
    assert not path.exists()


def _saved_doc(model, path):
    save_model(model, path)
    return json.loads(path.read_text())


def _as_format_1(doc, model):
    doc["format_version"] = 1
    for name, gmm in (("nat_gmm", model.nat), ("artif_gmm", model.artif)):
        doc[name] = {key: getattr(gmm, key).tolist()
                     for key in ("weights", "means", "variances")}
    return doc


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("keys, value, format_1", [
    (("extra",), 1, False),
    (("nat_gmm", "priors"), [0.5, 0.5], False),
    (("grid", "f_min"), 400.0, False),
    (("grid", "f_max"), 7000.0, False),
    (("format_version",), True, False),
    (("format_version",), 1.0, False),
    (("metadata",), [["seed", "7"]], False),
    (("metadata", "seed"), 7, False),
    (("nat_gmm", "weights"), ["0.5", "0.5"], True),
    (("nat_gmm", "weights"), [True, False], True),
], ids=["unknown-top-level-key", "unknown-gmm-key", "grid-f_min",
        "grid-f_max", "version-true", "version-float", "metadata-pairs",
        "metadata-int-value", "format-1-strings", "format-1-bools"])
def test_malformed_document_rejected_naming_file(model, tmp_path, keys, value,
                                                 format_1):
    path = tmp_path / "m.json"
    doc = _saved_doc(model, path)
    if format_1:
        doc = _as_format_1(doc, model)
    _set(doc, keys, value)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(str(path))):
        load_model(path)


def test_file_that_is_not_utf8_names_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"format_version": 2, "metadata": "\xff"}')
    with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8")):
        load_model(path)


def test_top_level_that_is_not_an_object_names_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[{"format_version": 2}]')
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}: top level must be a JSON object, got list")):
        load_model(path)


def _drop(key):
    def damage(array_doc):
        del array_doc[key]
    return damage


@pytest.mark.parametrize("damage, message", [
    (lambda a: a.update(data="@@@@"), "not a base64 string"),
    (lambda a: a.update(data="AAAA=AAA"), "not a base64 string"),
    (lambda a: a.update(data="éééé"), "not a base64 string"),
    (lambda a: a.update(data=[0.5, 0.5]), "not a base64 string"),
    (lambda a: a.update(data=a["data"][:-4]), "bytes of data"),
    (lambda a: a.update(shape=[3]), "bytes of data"),
    (lambda a: a.update(shape=[2, 1]), "inconsistent GMM parameter shapes"),
    (lambda a: a.update(shape=[True]), "shape must be int"),
    (lambda a: a.update(shape=[-2]), "negative"),
    (lambda a: a.update(shape=2), "shape must be a list"),
    (lambda a: a.update(dtype=">f8"), "dtype"),
    (lambda a: a.update(dtype="<f4"), "dtype"),
    (_drop("dtype"), "missing keys"),
    (_drop("shape"), "missing keys"),
    (lambda a: a.update(order="C"), "unknown keys"),
], ids=["bad-base64", "bad-padding", "non-ascii", "data-not-string",
        "short-data", "shape-too-large", "shape-wrong-rank", "shape-bool",
        "shape-negative", "shape-not-list", "dtype-big-endian",
        "dtype-float32", "missing-dtype", "missing-shape", "extra-key"])
def test_damaged_array_names_file(model, tmp_path, damage, message):
    path = tmp_path / "m.json"
    doc = _saved_doc(model, path)
    damage(doc["nat_gmm"]["weights"])
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(str(path))) as info:
        load_model(path)
    assert message in str(info.value)


def test_format_2_document_with_list_arrays_rejected(model, tmp_path):
    path = tmp_path / "m.json"
    doc = _as_format_1(_saved_doc(model, path), model)
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="must be a JSON object, got list"):
        load_model(path)
