"""Detector model serialization.

Models are stored as a versioned JSON document with sorted keys and numbers
written as shortest round-trip decimals, so save -> load -> save is byte
identical and a loaded model scores bit-exactly like the original.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import checked, from_doc, to_doc
from .detector import DetectorModel
from .errors import DataError, SchemaError, VersionMismatchError
from .features import FeatureConfig
from .gmm import DiagGmm
from .tables import replacing

MODEL_FORMAT_VERSION = 1


def save_model(model: DetectorModel, path) -> None:
    """Write ``model`` to ``path`` as canonical JSON.

    A configuration that :func:`load_model` would reject, such as an int
    given for a bool field, raises :class:`ConfigError` and writes nothing.
    """
    config_doc = to_doc(model.feature_config)
    from_doc(FeatureConfig, config_doc, f"{path}: feature_config")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_config": config_doc,
        "grid": {
            "size": model.feature_config.effective_grid_size,
            "f_min": model.feature_config.cqt.f_min,
            "f_max": model.feature_config.cqt.f_max,
        },
        "nat_gmm": _gmm_doc(model.nat),
        "artif_gmm": _gmm_doc(model.artif),
        "metadata": dict(model.metadata),
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    with replacing(path) as tmp:
        tmp.write_text(text + "\n", encoding="utf-8")


def load_model(path) -> DetectorModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`VersionMismatchError` for foreign format versions and
    :class:`SchemaError` naming ``path`` for anything structurally wrong
    (truncation, missing or unknown keys, values of the wrong type or range,
    malformed arrays, a feature config the GMMs disagree with).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if version is None:
        raise SchemaError(f"{path}: missing format_version")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format_version {version}, this build reads "
            f"{MODEL_FORMAT_VERSION}")

    try:
        config = replace(
            from_doc(FeatureConfig, doc["feature_config"], "feature_config"),
            grid_size=checked(doc["grid"]["size"], int, "grid: size"))
        nat = _gmm_from_doc(doc["nat_gmm"])
        artif = _gmm_from_doc(doc["artif_gmm"])
        metadata = dict(doc.get("metadata", {}))
        return DetectorModel(nat=nat, artif=artif, feature_config=config,
                             metadata=metadata)
    except DataError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model document ({exc})") from exc


def _gmm_doc(gmm: DiagGmm) -> dict:
    return {
        "weights": gmm.weights.tolist(),
        "means": gmm.means.tolist(),
        "variances": gmm.variances.tolist(),
    }


def _gmm_from_doc(doc: dict) -> DiagGmm:
    return DiagGmm(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        means=np.asarray(doc["means"], dtype=np.float64),
        variances=np.asarray(doc["variances"], dtype=np.float64),
    )
