"""Detector model serialization.

Models are stored as a versioned JSON document with sorted keys, so save ->
load -> save is byte identical and a loaded model scores bit-exactly like the
original. The feature config, grid and metadata are plain JSON. In format 2,
each GMM array (``weights``, ``means``, ``variances``) is an object
``{"data": <base64>, "dtype": "<f8", "shape": [...]}`` whose ``data`` is the
array's little-endian float64 bytes in C order. Format 1 wrote the arrays as
nested JSON lists of numbers; it is still read, but never written.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .config import check_keys, checked, from_doc, read_json_object, to_doc
from .detector import DetectorModel
from .errors import DataError, SchemaError, VersionMismatchError
from .features import FeatureConfig
from .gmm import DiagGmm
from .tables import replacing

MODEL_FORMAT_VERSION = 2
_READ_VERSIONS = (1, 2)
_ARRAY_DTYPE = "<f8"
_DOC_KEYS = ("artif_gmm", "feature_config", "format_version", "grid",
             "metadata", "nat_gmm")
_GRID_KEYS = ("f_max", "f_min", "size")
_GMM_KEYS = ("means", "variances", "weights")
_ARRAY_KEYS = ("data", "dtype", "shape")


def save_model(model: DetectorModel, path) -> None:
    """Write ``model`` to ``path`` as canonical JSON in format 2.

    A configuration that :func:`load_model` would reject, such as an int
    given for a bool field, raises :class:`ConfigError`, and metadata that is
    not an object of strings :class:`SchemaError`; either writes nothing.
    """
    config = model.feature_config
    config_doc = to_doc(config)
    from_doc(FeatureConfig, config_doc, f"{path}: feature_config",
             grid_size=config.grid_size)
    _check_metadata(model.metadata, f"{path}: metadata")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_config": config_doc,
        "grid": {"size": config.effective_grid_size,
                 "f_min": config.cqt.f_min, "f_max": config.cqt.f_max},
        "nat_gmm": _gmm_doc(model.nat),
        "artif_gmm": _gmm_doc(model.artif),
        "metadata": dict(model.metadata),
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    with replacing(path) as tmp:
        tmp.write_text(text + "\n", encoding="utf-8")


def load_model(path) -> DetectorModel:
    """Read a model written by :func:`save_model`, in format 1 or 2.

    Raises :class:`VersionMismatchError` for foreign format versions and
    :class:`SchemaError` naming ``path`` for anything structurally wrong
    (not UTF-8, truncation, missing or unknown keys, values of the wrong type
    or range, malformed arrays, a feature config the GMMs or the grid
    disagree with, a feature config whose front end cannot run).
    """
    doc = read_json_object(path, SchemaError)
    try:
        return _model_from_doc(doc)
    except VersionMismatchError as exc:
        raise VersionMismatchError(f"{path}: {exc}") from exc
    except DataError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model document ({exc})") from exc


def _model_from_doc(doc: dict) -> DetectorModel:
    if "format_version" not in doc:
        raise SchemaError("missing format_version")
    version = checked(doc["format_version"], int, "format_version")
    if version not in _READ_VERSIONS:
        raise VersionMismatchError(
            f"format_version {version}, this build reads {_READ_VERSIONS}")
    check_keys(doc, _DOC_KEYS, "model document", SchemaError)
    grid = check_keys(doc["grid"], _GRID_KEYS, "grid", SchemaError)
    config = from_doc(FeatureConfig, doc["feature_config"], "feature_config",
                      grid_size=checked(grid["size"], int, "grid: size"))
    for key in ("f_min", "f_max"):
        expected = getattr(config.cqt, key)
        if checked(grid[key], float, f"grid: {key}") != expected:
            raise SchemaError(f"grid: {key} {grid[key]} disagrees with the "
                              f"feature config's {expected}")
    metadata = _check_metadata(doc["metadata"], "metadata")
    nat = _gmm_from_doc(doc["nat_gmm"], version, "nat_gmm")
    artif = _gmm_from_doc(doc["artif_gmm"], version, "artif_gmm")
    return DetectorModel(nat=nat, artif=artif, feature_config=config,
                         metadata=metadata)


def _check_metadata(metadata, where) -> dict:
    if not isinstance(metadata, dict) or not all(
            isinstance(key, str) and isinstance(value, str)
            for key, value in metadata.items()):
        raise SchemaError(
            f"{where} must be an object of strings, got {metadata!r}")
    return metadata


def _gmm_doc(gmm: DiagGmm) -> dict:
    return {key: _array_doc(getattr(gmm, key)) for key in _GMM_KEYS}


def _gmm_from_doc(doc, version, where) -> DiagGmm:
    check_keys(doc, _GMM_KEYS, where, SchemaError)
    return DiagGmm(**{key: _array_from_doc(doc[key], version,
                                           f"{where}: {key}")
                      for key in _GMM_KEYS})


def _array_doc(array: np.ndarray) -> dict:
    data = np.asarray(array, dtype=_ARRAY_DTYPE)
    return {"data": base64.b64encode(data.tobytes()).decode("ascii"),
            "dtype": _ARRAY_DTYPE, "shape": list(data.shape)}


def _array_from_doc(doc, version, where) -> np.ndarray:
    """The native float64 array that ``_array_doc`` (format 2) or nested
    number lists (format 1) describe."""
    if version == 1:
        values = np.asarray(doc, dtype=object)
        if not all(type(v) in (int, float) for v in values.flat):
            raise SchemaError(f"{where} must be nested lists of numbers")
        return values.astype(np.float64)
    check_keys(doc, _ARRAY_KEYS, where, SchemaError)
    if doc["dtype"] != _ARRAY_DTYPE:
        raise SchemaError(f"{where}: dtype must be {_ARRAY_DTYPE!r}, "
                          f"got {doc['dtype']!r}")
    shape = doc["shape"]
    if not isinstance(shape, list):
        raise SchemaError(f"{where}: shape must be a list, got {shape!r}")
    shape = [checked(n, int, f"{where}: shape") for n in shape]
    if any(n < 0 for n in shape):
        raise SchemaError(f"{where}: negative entry in shape {shape}")
    try:
        raw = base64.b64decode(doc["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"{where}: data is not a base64 string ({exc})") from exc
    if len(raw) != np.dtype(_ARRAY_DTYPE).itemsize * math.prod(shape):
        raise SchemaError(f"{where}: {len(raw)} bytes of data for shape "
                          f"{shape}")
    array = np.frombuffer(raw, dtype=_ARRAY_DTYPE).reshape(shape)
    return array.astype(np.float64)
