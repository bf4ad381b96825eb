"""Two-hypothesis artifact detector.

One diagonal GMM is trained on natural speech and one on artificial speech;
an utterance is scored by the difference of its frame-averaged
log-likelihoods under the two models. Higher scores mean the utterance
looks more like natural human speech to the detector.

Training never touches evaluation manifests: :func:`train_detector` takes
only the two class manifests, so evaluation audio cannot leak into the
models by construction.

Features come from :func:`~spoofmeter.features.features_for_file`, through
the feature cache in ``$SPOOFMETER_CACHE_DIR`` when that is set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import __version__
from .errors import (BatchScoringError, DegenerateDataError,
                     DimMismatchError, EmptyManifestError, TooFewFramesError)
from .features import FeatureConfig, FeatureMatrix, features_for_file
from .gmm import DiagGmm, GmmTrainConfig, avg_log_likelihood, train_gmm
from .manifest import Manifest
from .metrics import ScoreRecord, ScoreSet
from .tables import read_table, write_table

import numpy as np

CACHE_ENV_VAR = "SPOOFMETER_CACHE_DIR"


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


def check_not_empty(manifest: Manifest, name: str) -> None:
    """Raise :class:`EmptyManifestError`, naming the file if known, for no rows."""
    if len(manifest) == 0:
        where = f"{manifest.source_path}: " if manifest.source_path else ""
        raise EmptyManifestError(f"{where}{name} manifest is empty")


def _for_each_file(manifest: Manifest, name: str, per_file) -> list:
    """``per_file(entry)`` for every row, in order; one error names every failure.

    Silently skipping files would bias the models and the error rates.
    """
    check_not_empty(manifest, name)
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
    with the identical schedule. The returned model is self-describing. An
    EM failure is raised again as its own type, naming class and manifest.
    """
    config = feature_config.pinned()
    cache_dir = os.environ.get(CACHE_ENV_VAR) or None

    def frames(entry):
        return features_for_file(config, entry.path, entry.utt_id,
                                 cache_dir).frames

    nat_frames = np.vstack(_for_each_file(nat_manifest, "natural-speech", frames))
    artif_frames = np.vstack(
        _for_each_file(artif_manifest, "artificial-speech", frames))

    def fit(frames, manifest, name):
        try:
            return train_gmm(frames, gmm_config)
        except (TooFewFramesError, DegenerateDataError) as exc:
            where = f"{manifest.source_path}: " if manifest.source_path else ""
            raise type(exc)(f"{where}{name} model: {exc}") from exc

    nat_gmm = fit(nat_frames, nat_manifest, "natural-speech")
    artif_gmm = fit(artif_frames, artif_manifest, "artificial-speech")

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


def llr_score(model: DetectorModel, feats: FeatureMatrix) -> float:
    """Log-likelihood ratio of natural over artificial speech for one utterance.

    ``feats`` is the utterance's :class:`FeatureMatrix`, extracted per the
    model's configuration. Deterministic and repeatable; swapping the class
    models negates the score exactly.
    """
    return avg_log_likelihood(model.nat, feats) - avg_log_likelihood(model.artif, feats)


def score_batch(model: DetectorModel, eval_manifest: Manifest) -> ScoreSet:
    """Score every manifest row, in manifest order.

    Per-file failures are collected and the whole batch fails with one
    :class:`BatchScoringError` if any file fails.
    """
    cache_dir = os.environ.get(CACHE_ENV_VAR) or None

    def record(entry):
        feats = features_for_file(model.feature_config, entry.path,
                                  entry.utt_id, cache_dir)
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
