"""Two-hypothesis artifact detector.

One diagonal GMM is trained on natural speech and one on artificial speech;
an utterance is scored by the difference of its frame-averaged
log-likelihoods under the two models. Higher scores mean the utterance
looks more like natural human speech to the detector.

Training never touches evaluation manifests: its three parts,
:func:`pooled_frames` then :func:`class_models` per class, then
:func:`paired_detectors`, take only the two class manifests, so evaluation
audio cannot leak into the models by construction. ``train``
(:func:`train_detector`) and ``grid`` compose the same parts, ``grid`` with
each class in a worker process and at every Gaussian count of the grid.

Training and scoring reach their features through :func:`_for_each_file`,
the one call of :func:`~spoofmeter.features.features_for_file`, with the
cache directory their caller passes: ``None`` for none, or what
:func:`feature_cache_dir` reads from ``$SPOOFMETER_CACHE_DIR`` in
:func:`train_detector`, :func:`score_batch` or ``grid``.
:func:`score_batches` scores in the calling process, as ``grid``'s scoring
tasks do in their worker, where no pool may start. ``score``
(:func:`score_batch`) splits the eval manifest into one contiguous chunk
per worker of :mod:`spoofmeter.workers` and runs :func:`score_batches` on
each in its worker, so no matrix product of a score runs in the caller and
the scores are those of a one-BLAS-thread run at any thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial

from . import __version__, workers
from .errors import (BatchScoringError, DegenerateDataError,
                     DimMismatchError, TooFewFramesError)
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


def feature_cache_dir():
    """``$SPOOFMETER_CACHE_DIR``, or ``None`` when it is unset or empty."""
    return os.environ.get(CACHE_ENV_VAR) or None


def _for_each_file(manifest: Manifest, config: FeatureConfig,
                   cache_dir, per_file) -> list:
    """``per_file(entry, feats)`` of every row, in order, with its features.

    ``feats`` comes from :func:`~spoofmeter.features.features_for_file` per
    ``config``, cached in ``cache_dir``. Each file is handled before the
    next is read. One error names every failure: silently skipping files
    would bias the models and the error rates.
    """
    results = []
    failures = []
    for entry in manifest:
        try:
            results.append(per_file(entry, features_for_file(
                [config], entry.path, entry.utt_id, cache_dir)[0]))
        except Exception as exc:
            failures.append((entry.utt_id, entry.path, exc))
    if failures:
        raise BatchScoringError(failures)
    return results


def pooled_frames(manifest: Manifest, config: FeatureConfig,
                  cache_dir=None) -> np.ndarray:
    """Every row's feature frames per ``config``, stacked in manifest order."""
    return np.vstack(_for_each_file(manifest, config, cache_dir,
                                    lambda _, feats: feats.frames))


def class_models(frames, manifest: Manifest, name: str,
                 gmm_config: GmmTrainConfig, counts) -> dict:
    """One class's model at each of ``counts``, from one EM run.

    The run goes up to the largest count the frames support, and each
    smaller count takes its stage model, the same for every larger target.
    A count the run cannot reach maps to its EM error: the same type, its
    message naming manifest and class.
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


def paired_detectors(nat_manifest: Manifest, artif_manifest: Manifest,
                     config: FeatureConfig, gmm_config: GmmTrainConfig,
                     counts, nat, artif) -> dict:
    """Each count's :class:`DetectorModel` from the two classes' models.

    ``nat`` and ``artif`` are each ``(frame count, class_models(...))`` at
    every count, or the file error that fails the class. A file error of
    either class, the natural class's first, fails every count. Else a
    count maps to the natural class's EM error, else the artificial
    class's, else its detector.
    """
    error = next((c for c in (nat, artif) if isinstance(c, Exception)), None)
    if error is not None:
        return dict.fromkeys(counts, error)
    metadata = {"tool": f"spoofmeter {__version__}", "seed": str(gmm_config.seed)}
    for side, manifest, (n_frames, _) in (("nat", nat_manifest, nat),
                                          ("artif", artif_manifest, artif)):
        metadata[f"{side}_files"] = str(len(manifest))
        metadata[f"{side}_frames"] = str(n_frames)
        if manifest.source_path:
            metadata[f"{side}_manifest"] = manifest.source_path
    detectors = {}
    for count in counts:
        model, other = nat[1][count], artif[1][count]
        if isinstance(model, DiagGmm):
            model = (DetectorModel(model, other, config, dict(metadata))
                     if isinstance(other, DiagGmm) else other)
        detectors[count] = model
    return detectors


def train_detector(nat_manifest: Manifest, artif_manifest: Manifest,
                   feature_config: FeatureConfig,
                   gmm_config: GmmTrainConfig) -> DetectorModel:
    """The two class models at ``gmm_config``'s count; raises the error
    training meets.

    Features are extracted per ``feature_config`` for every manifest row,
    through the cache of :func:`feature_cache_dir`, and pooled per class in
    manifest order, both classes before any EM, so a file error of either
    class fails first. Then the natural class is trained, and its EM error
    raised before the artificial class trains.
    """
    config = feature_config.pinned()
    count = gmm_config.target_components
    cache_dir = feature_cache_dir()
    classes = [(manifest, pooled_frames(manifest, config, cache_dir), name)
               for manifest, name in ((nat_manifest, "natural-speech"),
                                      (artif_manifest, "artificial-speech"))]
    pair = []
    for manifest, frames, name in classes:
        models = class_models(frames, manifest, name, gmm_config, [count])
        if isinstance(models[count], Exception):
            raise models[count]
        pair.append((len(frames), models))
    return paired_detectors(nat_manifest, artif_manifest, config, gmm_config,
                            [count], *pair)[count]


def llr_score(model: DetectorModel, feats: FeatureMatrix) -> float:
    """Log-likelihood ratio of natural over artificial speech for one utterance.

    ``feats`` is the utterance's :class:`FeatureMatrix`, extracted per the
    model's configuration. Deterministic and repeatable; swapping the class
    models negates the score exactly.
    """
    return avg_log_likelihood(model.nat, feats) - avg_log_likelihood(model.artif, feats)


def score_batch(model: DetectorModel, eval_manifest: Manifest) -> ScoreSet:
    """Score every manifest row, in manifest order, in the worker pool.

    The rows are split into contiguous chunks, one per usable CPU and at
    most one per row, and :func:`score_batches` scores each chunk in a
    worker of :mod:`spoofmeter.workers`, with the feature cache of
    :func:`feature_cache_dir`. Per-file failures of every chunk are
    collected and the whole batch fails with one :class:`BatchScoringError`,
    in manifest order, if any file fails.

    As :func:`~spoofmeter.workers.ordered_map` does, it must be called from
    one thread at a time, and raises :class:`RuntimeError` in a pool worker,
    where :func:`score_batches` is the way to score. The first call in a
    process starts the pool (see :mod:`spoofmeter.cli` for what that costs).
    """
    rows = eval_manifest.entries
    n_chunks = min(workers.usable_cpus(), len(rows))
    bounds = [len(rows) * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [Manifest(rows[start:stop], eval_manifest.source_path)
              for start, stop in zip(bounds, bounds[1:])]
    scored = workers.ordered_map(
        partial(_score_chunk, model, feature_cache_dir()), chunks)
    failures = [failure for chunk in scored
                if isinstance(chunk, BatchScoringError)
                for failure in chunk.failures]
    if failures:
        raise BatchScoringError(failures)
    return ScoreSet(tuple(record for chunk in scored
                          for record in chunk.records))


def _score_chunk(model: DetectorModel, cache_dir, chunk: Manifest):
    """The chunk's :class:`ScoreSet`, or the error that names its failures."""
    try:
        return score_batches([model], chunk, cache_dir)[0]
    except BatchScoringError as exc:
        return exc


def score_batches(models, eval_manifest: Manifest, cache_dir=None) -> list:
    """:func:`score_batch` of each of ``models``, which share one feature
    config, in this process, with the feature cache in ``cache_dir``.

    Each file's features are extracted once and scored by every model
    before the next file is read.
    """
    def records(entry, feats):
        return [ScoreRecord(entry.utt_id, entry.label, entry.system_id,
                            llr_score(model, feats)) for model in models]

    rows = _for_each_file(eval_manifest, models[0].feature_config,
                          cache_dir, records)
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
