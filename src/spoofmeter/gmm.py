"""Diagonal-covariance Gaussian mixtures: EM training and stable scoring.

Training uses a binary-splitting schedule: start from the global
mean/variance as a single component, double the component count by
perturbing each mean by +/- 0.2 standard deviations, and run a fixed number
of EM iterations after every split until the target is reached. The schedule
involves no randomness, so training is deterministic for given data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import (
    ConfigError,
    DegenerateDataError,
    DimMismatchError,
    EmptyFeaturesError,
    TooFewFramesError,
)
from .features import FeatureMatrix

_LOG_2PI = np.log(2.0 * np.pi)

# Frame-chunk size for E-step/scoring scratch matrices, in floats.
_MAX_CHUNK_FLOATS = 4_000_000

# Components assigned less than this much posterior mass keep their previous
# parameters instead of dividing by a vanishing count.
_MIN_COMPONENT_MASS = 1e-8


@dataclass(frozen=True)
class GmmTrainConfig:
    """Binary-splitting EM schedule parameters.

    ``target_components`` must be a power of two; ``seed`` is carried into
    model metadata for the audit trail (the schedule itself draws no random
    numbers).
    """

    target_components: int = 2048
    em_iters_per_stage: int = 10
    variance_floor_factor: float = 1e-3
    convergence_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        c = self.target_components
        if c < 1 or (c & (c - 1)) != 0:
            raise ConfigError(
                f"target_components must be a power of two >= 1, got {c}")
        if self.em_iters_per_stage < 1:
            raise ConfigError("em_iters_per_stage must be >= 1")
        if self.variance_floor_factor <= 0.0:
            raise ConfigError("variance_floor_factor must be positive")
        if self.convergence_tol <= 0.0:
            raise ConfigError("convergence_tol must be positive")


@dataclass(frozen=True)
class DiagGmm:
    """Weights, means, and diagonal variances for C components in D dims."""

    weights: np.ndarray    # (C,), non-negative, sums to 1
    means: np.ndarray      # (C, D)
    variances: np.ndarray  # (C, D), strictly positive

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or m.ndim != 2 or v.shape != m.shape \
                or w.shape[0] != m.shape[0]:
            raise ValueError("inconsistent GMM parameter shapes")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))
                and np.all(np.isfinite(v))):
            raise ValueError("GMM parameters must be finite")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(v <= 0.0):
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def train_gmm(frames, config: GmmTrainConfig, return_history: bool = False):
    """Fit a diagonal GMM to pooled frames by binary-splitting EM.

    Variances are floored at ``variance_floor_factor`` times the global
    per-dimension variance. With ``return_history`` the per-stage traces of
    average per-frame log-likelihood (one value per EM iteration, evaluated
    at the iteration's starting parameters) are returned alongside the model.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D (count, dim) array")
    n_frames, dim = frames.shape
    if n_frames < config.target_components:
        raise TooFewFramesError(
            f"{n_frames} frames cannot support {config.target_components} "
            f"components")

    global_mean = frames.mean(axis=0)
    global_var = frames.var(axis=0)
    if not np.any(global_var > 0.0):
        raise DegenerateDataError("all training frames are identical")
    # Constant dimensions get a tiny positive stand-in so the floor stays > 0.
    var_basis = np.maximum(global_var, 1e-12 * max(global_var.max(), 1.0))
    floor = config.variance_floor_factor * var_basis

    weights = np.array([1.0])
    means = global_mean[None, :].copy()
    variances = np.maximum(global_var, floor)[None, :]

    history = []
    while weights.shape[0] < config.target_components:
        weights, means, variances = _split(weights, means, variances)
        stage_trace = []
        for _ in range(config.em_iters_per_stage):
            avg_ll, counts, sum_x, sum_x2 = _accumulate(
                frames, weights, means, variances)
            stage_trace.append(avg_ll)
            weights, means, variances = _maximize(
                counts, sum_x, sum_x2, means, variances, floor, n_frames)
            if len(stage_trace) >= 2:
                prev, cur = stage_trace[-2], stage_trace[-1]
                if abs(cur - prev) < config.convergence_tol * max(1.0, abs(prev)):
                    break
        history.append(stage_trace)

    gmm = DiagGmm(weights=weights, means=means, variances=variances)
    if return_history:
        return gmm, history
    return gmm


def _split(weights, means, variances):
    # Each component becomes two, means nudged along +/- 0.2 stddev.
    offset = 0.2 * np.sqrt(variances)
    weights = np.concatenate([weights, weights]) / 2.0
    means = np.vstack([means - offset, means + offset])
    variances = np.vstack([variances, variances])
    return weights, means, variances


def _log_likelihood_chunks(frames, weights, means, variances):
    """Yield ``(x, joint, frame_ll)`` for each chunk of frames.

    A chunk holds at most ``_MAX_CHUNK_FLOATS / C`` frames. ``joint`` is its
    (n, C) matrix of log weight plus component log density and ``frame_ll``
    the log-sum-exp of that over components. The model constants are
    computed once per call, not per chunk.
    """
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * _LOG_2PI + np.sum(np.log(variances), axis=1))
    inv_t = inv.T
    scaled_means_t = (means * inv).T
    mean_term = 0.5 * np.sum(means ** 2 * inv, axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    chunk = max(1, _MAX_CHUNK_FLOATS // weights.shape[0])
    for lo in range(0, frames.shape[0], chunk):
        x = frames[lo:lo + chunk]
        # One expression, so no (n, C) temporary outlives the yield; this
        # operation order is what saved models and scores were written with.
        joint = (const - (0.5 * (x ** 2) @ inv_t - x @ scaled_means_t
                          + mean_term)) + log_w
        yield x, joint, logsumexp(joint, axis=1)


def _accumulate(frames, weights, means, variances):
    """One E-step: average log-likelihood plus sufficient statistics."""
    total_ll = 0.0
    counts = np.zeros(weights.shape[0])
    sum_x = np.zeros_like(means)
    sum_x2 = np.zeros_like(means)
    for x, joint, frame_ll in _log_likelihood_chunks(
            frames, weights, means, variances):
        resp = np.exp(joint - frame_ll[:, None])
        total_ll += frame_ll.sum()
        counts += resp.sum(axis=0)
        sum_x += resp.T @ x
        sum_x2 += resp.T @ (x ** 2)
    return total_ll / frames.shape[0], counts, sum_x, sum_x2


def _maximize(counts, sum_x, sum_x2, old_means, old_variances, floor, n_frames):
    weights = counts / n_frames
    weights = weights / weights.sum()

    live = counts > _MIN_COMPONENT_MASS
    safe_counts = np.where(live, counts, 1.0)[:, None]
    means = np.where(live[:, None], sum_x / safe_counts, old_means)
    variances = np.where(
        live[:, None], sum_x2 / safe_counts - means ** 2, old_variances)
    variances = np.maximum(variances, floor)
    return weights, means, variances


def frame_log_likelihoods(gmm: DiagGmm, frames) -> np.ndarray:
    """Per-frame mixture log-likelihoods via log-sum-exp (always finite)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise DimMismatchError(
            f"frames of shape {frames.shape} against a {gmm.dim}-dim model")
    chunks = _log_likelihood_chunks(
        frames, gmm.weights, gmm.means, gmm.variances)
    return np.concatenate([np.empty(0)] + [ll for _, _, ll in chunks])


def avg_log_likelihood(gmm: DiagGmm, feats) -> float:
    """Mean over frames of the mixture log-likelihood.

    Frame averaging (rather than summing) makes utterance scores comparable
    across durations. Accepts a :class:`FeatureMatrix` or a plain array.
    """
    frames = feats.frames if isinstance(feats, FeatureMatrix) else feats
    frame_ll = frame_log_likelihoods(gmm, frames)
    if frame_ll.size == 0:
        raise EmptyFeaturesError("cannot average over zero frames")
    return float(frame_ll.mean())
