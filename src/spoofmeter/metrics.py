"""Evaluation quantities: FAR/MR curves, EER, attack averages, opinion scores.

Conventions fixed here for exact small-sample behavior: a spoof trial is
(falsely) accepted when its score is >= the threshold, a bona fide trial is
missed when its score is < the threshold, and the equal error rate is read
off the discrete curve by linearly interpolating FAR and MR to their
crossing. EER is a rank statistic: any strictly increasing transform of all
scores leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyPopulationError, NoSpoofSystemsError
from .tables import read_table

BONAFIDE = "bonafide"
SPOOF = "spoof"
BONAFIDE_SYSTEM = "-"
# The system id of the attack-averaged row of an ``eer`` table.
AVERAGE_ROW_ID = "(average)"

VALID_LABELS = (BONAFIDE, SPOOF)

OPINION_COLUMNS = ("utt_id", "system_id", "listener_id", "score")


def check_label(label: str, system_id: str) -> None:
    """Raise ``ValueError`` unless the label is known and fits the system id.

    Bona fide trials carry the reserved system id ``-``; spoof trials name
    a real system, neither ``-`` nor the ``eer`` table's ``(average)``.
    """
    if label not in VALID_LABELS:
        raise ValueError(f"unknown label {label!r}")
    if label == SPOOF and system_id in (BONAFIDE_SYSTEM, AVERAGE_ROW_ID):
        raise ValueError(
            f"spoof rows must name a system, not {system_id!r}")
    if label == BONAFIDE and system_id != BONAFIDE_SYSTEM:
        raise ValueError(
            f"bona fide rows carry the reserved system_id "
            f"{BONAFIDE_SYSTEM!r}, got {system_id!r}")


def check_eer_percent(eer_percent: float) -> float:
    """``eer_percent`` if it lies in [0, 100]; else ``ValueError``."""
    if not 0.0 <= eer_percent <= 100.0:
        raise ValueError("EER must lie in [0, 100] percent")
    return eer_percent


@dataclass(frozen=True)
class ScoreRecord:
    """One scored trial: utterance id, class label, source system, LLR."""

    utt_id: str
    label: str
    system_id: str
    llr: float

    def __post_init__(self):
        check_label(self.label, self.system_id)
        if not np.isfinite(self.llr):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class ScoreSet:
    """Ordered collection of labeled scores."""

    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self):
        return len(self.records)

    def bona_scores(self) -> np.ndarray:
        return np.array([r.llr for r in self.records if r.label == BONAFIDE])

    def spoof_scores(self, system_id: str | None = None) -> np.ndarray:
        return np.array([
            r.llr for r in self.records
            if r.label == SPOOF and (system_id is None or r.system_id == system_id)
        ])

    def systems(self) -> list:
        """Spoof system ids, sorted for stable reporting."""
        return sorted({r.system_id for r in self.records if r.label == SPOOF})


class FarMrCurve(NamedTuple):
    """FAR and MR evaluated at every distinct score plus -inf/+inf sentinels."""

    thresholds: np.ndarray
    far: np.ndarray
    mr: np.ndarray


@dataclass(frozen=True)
class EerResult:
    """Equal error rate in percent with the threshold it occurs at."""

    eer_percent: float
    threshold: float
    n_bonafide: int
    n_spoof: int

    def __post_init__(self):
        check_eer_percent(self.eer_percent)


@dataclass(frozen=True)
class AttackEerSummary:
    """Per-system EERs plus their unweighted mean."""

    per_attack: dict
    average_percent: float


def _as_population(scores, name):
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyPopulationError(f"{name} score population is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} scores must be finite")
    return arr


def far_mr_curve(bona_scores, spoof_scores) -> FarMrCurve:
    """False-acceptance and miss rates as functions of the threshold.

    FAR(t) is the fraction of spoof scores >= t (non-increasing in t), MR(t)
    the fraction of bona fide scores < t (non-decreasing).
    """
    bona = np.sort(_as_population(bona_scores, "bona fide"))
    spoof = np.sort(_as_population(spoof_scores, "spoof"))

    inner = np.unique(np.concatenate([bona, spoof]))
    thresholds = np.concatenate(([-np.inf], inner, [np.inf]))
    # Integer counts first, one division each: rates are exact count ratios,
    # so equal FAR/MR populations tie exactly.
    n_accepted = spoof.size - np.searchsorted(spoof, thresholds, side="left")
    n_missed = np.searchsorted(bona, thresholds, side="left")
    return FarMrCurve(thresholds=thresholds,
                      far=n_accepted / spoof.size,
                      mr=n_missed / bona.size)


def compute_eer(bona_scores, spoof_scores) -> EerResult:
    """Equal error rate of separating the two populations, in percent.

    Walks the discrete FAR/MR curve to the first threshold where FAR <= MR;
    an exact tie is the EER, otherwise both rates are linearly interpolated
    to the crossing inside the preceding interval.
    """
    curve = far_mr_curve(bona_scores, spoof_scores)
    diff = curve.far - curve.mr
    idx = int(np.flatnonzero(diff <= 0.0)[0])  # diff starts at +1, ends at -1

    if diff[idx] == 0.0:
        eer = curve.far[idx]
        threshold = curve.thresholds[idx]
    else:
        prev = idx - 1
        lam = diff[prev] / (diff[prev] - diff[idx])
        eer = curve.far[prev] + lam * (curve.far[idx] - curve.far[prev])
        lo, hi = curve.thresholds[prev], curve.thresholds[idx]
        if np.isfinite(lo) and np.isfinite(hi):
            threshold = lo + lam * (hi - lo)
        else:
            threshold = lo if np.isfinite(lo) else hi

    n_bona = np.asarray(bona_scores).size
    n_spoof = np.asarray(spoof_scores).size
    return EerResult(
        eer_percent=float(100.0 * eer),
        threshold=float(threshold),
        n_bonafide=int(n_bona),
        n_spoof=int(n_spoof),
    )


def attack_averaged_eer(scores: ScoreSet) -> AttackEerSummary:
    """EER per spoof system against the common bona fide population.

    The summary value is the unweighted arithmetic mean of the per-attack
    EERs.
    """
    bona = scores.bona_scores()
    if bona.size == 0:
        raise EmptyPopulationError("score set has no bona fide records")
    systems = scores.systems()
    if not systems:
        raise NoSpoofSystemsError("score set has no spoof records")

    per_attack = {}
    for system in systems:
        per_attack[system] = compute_eer(bona, scores.spoof_scores(system))
    average = float(np.mean([r.eer_percent for r in per_attack.values()]))
    return AttackEerSummary(per_attack=per_attack, average_percent=average)


def machine_opinion_score(eer_percent: float) -> float:
    """EER/10 clamped to at most 5: a continuous 5-point machine opinion.

    50% (chance level) maps to the ideal 5.0, and so does any EER above it.
    ``ValueError`` unless the EER lies in [0, 100].
    """
    return min(check_eer_percent(eer_percent) / 10.0, 5.0)


@dataclass(frozen=True)
class OpinionRecord:
    """One listener's 1-5 quality rating of one utterance."""

    utt_id: str
    system_id: str
    listener_id: str
    score: int

    def __post_init__(self):
        if self.score not in (1, 2, 3, 4, 5):
            raise ValueError(f"opinion score must be 1..5, got {self.score}")


def compute_mos(records) -> dict:
    """Mean opinion score per system: the plain mean over obtained ratings.

    Pairs nobody rated simply do not contribute.
    """
    by_system = {}
    for rec in records:
        by_system.setdefault(rec.system_id, []).append(rec.score)
    return {s: float(np.mean(v)) for s, v in sorted(by_system.items())}


def read_opinion_file(path) -> list:
    """Parse an opinions table: utt_id, system_id, listener_id, score (1-5)."""
    return read_table(
        path, OPINION_COLUMNS,
        lambda utt_id, system_id, listener_id, score: OpinionRecord(
            utt_id, system_id, listener_id, int(score)))
