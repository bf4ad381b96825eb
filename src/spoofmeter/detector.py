"""Two-hypothesis artifact detector.

One diagonal GMM is trained on natural speech and one on artificial speech;
an utterance is scored by the difference of its frame-averaged
log-likelihoods under the two models. Higher scores mean the utterance
looks more like natural human speech to the detector.

Training never touches evaluation manifests: :func:`train_detector` takes
only the two class manifests, so evaluation audio cannot leak into the
models by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .audio_io import AudioSignal, read_wav
from .config import to_doc
from .errors import BatchScoringError, DimMismatchError, EmptyManifestError
from .features import (
    FeatureConfig,
    FeatureMatrix,
    extract_features,
    read_feature_cache,
    write_feature_cache,
)
from .gmm import DiagGmm, GmmTrainConfig, avg_log_likelihood, train_gmm
from .manifest import Manifest
from .metrics import ScoreRecord, ScoreSet
from .tables import read_table, write_table

import numpy as np

CACHE_ENV_VAR = "SPOOFMETER_CACHE_DIR"

# Part of every feature cache key. Bump it whenever extraction output changes,
# even in the last bits, so that entries an older front end wrote are rebuilt.
_FRONTEND_REVISION = 5


@dataclass(frozen=True)
class DetectorModel:
    """Pair of class GMMs plus the feature configuration they were trained with."""

    nat: DiagGmm
    artif: DiagGmm
    feature_config: FeatureConfig
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nat.dim != self.artif.dim:
            raise DimMismatchError(
                f"class models disagree on dimension: {self.nat.dim} vs "
                f"{self.artif.dim}")
        if self.nat.dim != self.feature_config.output_dim:
            raise DimMismatchError(
                f"models are {self.nat.dim}-dimensional but the feature "
                f"config yields {self.feature_config.output_dim}")


def _cache_key(config: FeatureConfig, path: str) -> str:
    # The WAV's size and mtime make a file replaced in place a new key.
    stat = os.stat(path)
    doc = [_FRONTEND_REVISION, str(Path(path).resolve()), stat.st_size,
           stat.st_mtime_ns, to_doc(config), config.effective_grid_size]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:24]


def _features_for_file(config: FeatureConfig, path: str,
                       utt_id: str) -> FeatureMatrix:
    """Features of one WAV, through the ``SPOOFMETER_CACHE_DIR`` cache if set.

    Entries are ``.npy`` arrays (:func:`write_feature_cache`). A missing or
    unreadable entry (damaged, or in an older format) is a cache miss: the
    features are extracted again and the entry replaced.
    """
    cache = os.environ.get(CACHE_ENV_VAR)
    if not cache:
        return extract_features(config, read_wav(path), source_id=utt_id)

    cache_file = Path(cache) / f"{_cache_key(config, path)}.feat"
    try:
        return read_feature_cache(cache_file, source_id=utt_id)
    except (FileNotFoundError, ValueError):
        pass
    feats = extract_features(config, read_wav(path), source_id=utt_id)
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    write_feature_cache(cache_file, feats)
    return feats


def _for_each_file(manifest: Manifest, name: str, per_file) -> list:
    """``per_file(entry)`` for every row, in order; one error names every failure.

    Silently skipping files would bias the models and the error rates.
    """
    if len(manifest) == 0:
        raise EmptyManifestError(f"{name} manifest is empty")
    results = []
    failures = []
    for entry in manifest:
        try:
            results.append(per_file(entry))
        except Exception as exc:
            failures.append((entry.utt_id, entry.path, exc))
    if failures:
        raise BatchScoringError(failures)
    return results


def train_detector(nat_manifest: Manifest, artif_manifest: Manifest,
                   feature_config: FeatureConfig,
                   gmm_config: GmmTrainConfig) -> DetectorModel:
    """Train the two class models on pooled per-class frames.

    Features are extracted per ``feature_config`` for every manifest row,
    pooled per class in manifest order, and one GMM is trained per class
    with the identical schedule. The returned model is self-describing.
    """
    config = feature_config.pinned()

    def frames(entry):
        return _features_for_file(config, entry.path, entry.utt_id).frames

    nat_frames = np.vstack(_for_each_file(nat_manifest, "natural-speech", frames))
    artif_frames = np.vstack(
        _for_each_file(artif_manifest, "artificial-speech", frames))

    nat_gmm = train_gmm(nat_frames, gmm_config)
    artif_gmm = train_gmm(artif_frames, gmm_config)

    metadata = {
        "tool": f"spoofmeter {__version__}",
        "seed": str(gmm_config.seed),
        "nat_files": str(len(nat_manifest)),
        "artif_files": str(len(artif_manifest)),
        "nat_frames": str(nat_frames.shape[0]),
        "artif_frames": str(artif_frames.shape[0]),
    }
    if nat_manifest.source_path:
        metadata["nat_manifest"] = nat_manifest.source_path
    if artif_manifest.source_path:
        metadata["artif_manifest"] = artif_manifest.source_path

    return DetectorModel(nat=nat_gmm, artif=artif_gmm,
                         feature_config=config, metadata=metadata)


def llr_score(model: DetectorModel, utterance) -> float:
    """Log-likelihood ratio of natural over artificial speech for one utterance.

    Accepts an :class:`AudioSignal` (features are extracted per the model's
    configuration) or a cached :class:`FeatureMatrix` of matching dimension.
    Deterministic and repeatable; swapping the class models negates the
    score exactly.
    """
    if isinstance(utterance, FeatureMatrix):
        feats = utterance
    elif isinstance(utterance, AudioSignal):
        feats = extract_features(model.feature_config, utterance)
    else:
        raise TypeError(
            f"utterance must be AudioSignal or FeatureMatrix, got "
            f"{type(utterance).__name__}")
    return avg_log_likelihood(model.nat, feats) - avg_log_likelihood(model.artif, feats)


def score_batch(model: DetectorModel, eval_manifest: Manifest) -> ScoreSet:
    """Score every manifest row, in manifest order.

    Per-file failures are collected and the whole batch fails with one
    :class:`BatchScoringError` if any file fails.
    """
    def record(entry):
        feats = _features_for_file(model.feature_config, entry.path,
                                   entry.utt_id)
        return ScoreRecord(entry.utt_id, entry.label, entry.system_id,
                           llr_score(model, feats))

    return ScoreSet(tuple(_for_each_file(eval_manifest, "evaluation", record)))


SCORE_COLUMNS = ("utt_id", "label", "system_id", "llr")


def write_score_file(scores: ScoreSet, path, comments=()) -> None:
    """Write a score TSV: one row per record, LLR as shortest round-trip decimal."""
    write_table(path, SCORE_COLUMNS, (
        (r.utt_id, r.label, r.system_id, float(r.llr)) for r in scores.records),
        comments)


def read_score_file(path) -> ScoreSet:
    """Read a TSV written by :func:`write_score_file`."""
    return ScoreSet(tuple(read_table(
        path, SCORE_COLUMNS,
        lambda utt_id, label, system_id, llr: ScoreRecord(
            utt_id, label, system_id, float(llr)))))
