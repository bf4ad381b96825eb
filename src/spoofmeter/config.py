"""Configuration documents: one schema, read from the dataclass fields.

A configuration dataclass is written as a JSON object whose keys are its
field names, a nested dataclass as a nested object; a field declared with
``metadata={"doc": False}`` is left out. The run config, the model file and
the feature-cache key all use this one document. Types are checked strictly
on the way in: an ``int`` field takes an int but never a bool, a ``float``
field takes an int or a float and stores a float, and a ``bool`` field takes
only a bool.

Run configs and model files are read by :func:`read_json_object` and their
keys checked by :func:`check_keys`.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError

_ACCEPTED = {bool: (bool,), int: (int,), float: (int, float)}


def _doc_fields(cls_or_obj) -> list:
    return [f.name for f in fields(cls_or_obj) if f.metadata.get("doc", True)]


def to_doc(obj) -> dict:
    """The JSON object of a configuration dataclass instance."""
    doc = {}
    for name in _doc_fields(obj):
        value = getattr(obj, name)
        doc[name] = to_doc(value) if is_dataclass(value) else value
    return doc


def read_json_object(path, error=ConfigError) -> dict:
    """The top-level JSON object of the UTF-8 file ``path``, else ``error``
    naming it; a missing file raises ``FileNotFoundError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be a JSON object, "
                    f"got {type(doc).__name__}")
    return doc


def check_keys(doc, names, where, error=ConfigError,
               all_required=True) -> dict:
    """``doc`` if it is a JSON object of the keys ``names``, else ``error``
    naming ``where``; missing keys are allowed unless ``all_required``."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {type(doc).__name__}")
    missing = set(names) - set(doc) if all_required else ()
    unknown = set(doc) - set(names)
    for kind, keys in (("missing", missing), ("unknown", unknown)):
        if keys:
            raise error(f"{where}: {kind} keys {sorted(keys)}")
    return doc


def checked(value, hint, where):
    """``value`` as a field of type ``hint`` holds it; else :class:`ConfigError`."""
    if (isinstance(value, bool) != (hint is bool)
            or not isinstance(value, _ACCEPTED[hint])):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    try:
        return float(value) if hint is float else value
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{where}: float out of range") from None


def from_doc(cls, doc, where, defaults=None, **outside_doc):
    """Build ``cls`` from the JSON object ``doc``, checking every key and type.

    Missing keys take their value from ``defaults``, a full document of
    ``cls``; without it every key is required. ``outside_doc`` sets fields
    the document leaves out, such as a model's pinned ``grid_size``. Unknown
    or missing keys, wrong types and out-of-range values raise
    :class:`ConfigError` naming ``where`` (a file, then the path of keys).
    """
    names = _doc_fields(cls)
    check_keys(doc, names, where, all_required=defaults is None)
    hints = get_type_hints(cls)
    values = {}
    for name in names:
        value = doc[name] if name in doc else defaults[name]
        if is_dataclass(hints[name]):
            values[name] = from_doc(
                hints[name], value, f"{where}: {name}",
                None if defaults is None else defaults[name])
        else:
            values[name] = checked(value, hints[name], f"{where}: {name}")
    try:
        return cls(**values, **outside_doc)
    except (ConfigError, OverflowError) as exc:  # also a size beyond a float
        raise ConfigError(f"{where}: {exc}") from exc
