"""Two-hypothesis artifact detector.

One diagonal GMM is trained on natural speech and one on artificial speech;
an utterance is scored by the difference of its frame-averaged
log-likelihoods under the two models. Higher scores mean the utterance
looks more like natural human speech to the detector.

Training never touches evaluation manifests: :func:`train_detectors`, the
one training path (``train`` and ``grid`` both go through it), takes only the
two class manifests, so evaluation audio cannot leak into the models by
construction.

Both reach their features through :func:`_for_each_file`, the one call of
:func:`~spoofmeter.features.features_for_file`, with the feature cache in
``$SPOOFMETER_CACHE_DIR`` when that is set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from . import __version__
from .errors import (BatchScoringError, DegenerateDataError,
                     DimMismatchError, SpoofmeterError, TooFewFramesError)
from .features import FeatureConfig, FeatureMatrix, features_for_file
from .gmm import DiagGmm, GmmTrainConfig, avg_log_likelihood, gmm_stages
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


def _for_each_file(manifest: Manifest, config: FeatureConfig,
                   static_memo: dict | None, per_file) -> list:
    """``per_file(entry, feats)`` of every row, in order, with its features.

    ``feats`` comes from :func:`~spoofmeter.features.features_for_file` per
    ``config``, with ``static_memo``. Each file is handled before the next
    is read. One error names every failure: silently skipping files would
    bias the models and the error rates.
    """
    cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    results = []
    failures = []
    for entry in manifest:
        try:
            results.append(per_file(entry, features_for_file(
                config, entry.path, entry.utt_id, cache_dir, static_memo)))
        except Exception as exc:
            failures.append((entry.utt_id, entry.path, exc))
    if failures:
        raise BatchScoringError(failures)
    return results


def _class_models(frames, manifest: Manifest, name: str,
                  gmm_config: GmmTrainConfig, counts) -> dict:
    """One class's model at each of ``counts``, from one EM run.

    The run goes up to the largest count the frames support, and each
    smaller count takes its stage model. A count the run cannot reach maps
    to its EM error: the same type, its message naming manifest and class.
    """
    models, stages = {}, None
    for count in sorted(counts, reverse=True):
        try:
            if stages is None:
                config = replace(gmm_config, target_components=count)
                stages = {gmm.n_components: gmm
                          for gmm, _ in gmm_stages(frames, config)
                          if gmm.n_components in counts}
            models[count] = stages[count]
        except (TooFewFramesError, DegenerateDataError) as exc:
            where = f"{manifest.source_path}: " if manifest.source_path else ""
            models[count] = type(exc)(f"{where}{name} model: {exc}")
    return models


def train_detectors(nat_manifest: Manifest, artif_manifest: Manifest,
                    feature_config: FeatureConfig, gmm_config: GmmTrainConfig,
                    counts, static_memo: dict | None = None) -> dict:
    """Train the two class models at each Gaussian count in ``counts``.

    Features are extracted per ``feature_config`` for every manifest row
    and pooled per class in manifest order, once. Each class is trained
    once, with ``gmm_config``'s schedule, up to the largest count its
    frames support; the artificial class only for the counts the natural
    class reached. Maps every count to its self-describing
    :class:`DetectorModel`, or to the error training it raises: a file
    error of either class, else the natural class's EM error, else
    the artificial class's. ``static_memo`` is passed on to
    :func:`~spoofmeter.features.features_for_file`.
    """
    config = feature_config.pinned()
    try:
        nat_frames, artif_frames = (
            np.vstack(_for_each_file(manifest, config, static_memo,
                                     lambda _, feats: feats.frames))
            for manifest in (nat_manifest, artif_manifest))
    except SpoofmeterError as exc:
        return dict.fromkeys(counts, exc)
    models = _class_models(nat_frames, nat_manifest, "natural-speech",
                           gmm_config, counts)
    trained = [c for c in counts if isinstance(models[c], DiagGmm)]
    artif_gmms = _class_models(artif_frames, artif_manifest,
                               "artificial-speech", gmm_config, trained)

    metadata = {"tool": f"spoofmeter {__version__}", "seed": str(gmm_config.seed)}
    for side, manifest, frames in (("nat", nat_manifest, nat_frames),
                                   ("artif", artif_manifest, artif_frames)):
        metadata[f"{side}_files"] = str(len(manifest))
        metadata[f"{side}_frames"] = str(frames.shape[0])
        if manifest.source_path:
            metadata[f"{side}_manifest"] = manifest.source_path
    for count in trained:
        if isinstance(artif_gmms[count], DiagGmm):
            models[count] = DetectorModel(models[count], artif_gmms[count],
                                          config, dict(metadata))
        else:
            models[count] = artif_gmms[count]
    return {count: models[count] for count in counts}


def train_detector(nat_manifest: Manifest, artif_manifest: Manifest,
                   feature_config: FeatureConfig,
                   gmm_config: GmmTrainConfig) -> DetectorModel:
    """:func:`train_detectors` at ``gmm_config``'s one count; raises its error."""
    count = gmm_config.target_components
    model = train_detectors(nat_manifest, artif_manifest, feature_config,
                            gmm_config, [count])[count]
    if isinstance(model, Exception):
        raise model
    return model


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
    return score_batches([model], eval_manifest)[0]


def score_batches(models, eval_manifest: Manifest,
                  static_memo: dict | None = None) -> list:
    """:func:`score_batch` of each of ``models``, which share one feature config.

    Each file's features are extracted once and scored by every model
    before the next file is read. ``static_memo`` is passed on to
    :func:`~spoofmeter.features.features_for_file`.
    """
    def records(entry, feats):
        return [ScoreRecord(entry.utt_id, entry.label, entry.system_id,
                            llr_score(model, feats)) for model in models]

    rows = _for_each_file(eval_manifest, models[0].feature_config,
                          static_memo, records)
    return [ScoreSet(tuple(row[i] for row in rows)) for i in range(len(models))]


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
