"""Diagonal-covariance Gaussian mixtures: EM training and stable scoring.

Training uses binary splitting: from the global mean/variance as one
component, double the component count by moving each mean +/- 0.2 standard
deviations, then run exactly ``em_iters_per_stage`` EM iterations, until the
target is reached. No stage stops early, since slow early LL gains need not
mean convergence: both halves of a split start on all of the data. Variances
are floored at ``_VARIANCE_FLOOR_FACTOR`` times the global per-dimension
variance. The schedule draws no random numbers and does not depend on the
data, so the C-component stage model of every run that reaches C components
is the same; :func:`gmm_stages` yields each one, so one run serves every
smaller count.

Scoring and the E-step share one fused kernel, the standard GMM-UBM form
(Reynolds et al., 2000). Expanding the quadratic, component c's joint
log-likelihood of a frame x is ``[x², x] · proj_c + bias_c`` with
``proj_c = [−½σ_c⁻², μ_c σ_c⁻²]`` and
``bias_c = log w_c − ½(D log 2π + Σ log σ_c² + Σ μ_c² σ_c⁻²)``. Each
:class:`DiagGmm` builds its tables once, and EM steps a ``DiagGmm`` over a
design matrix ``[x², x]`` built once per call. So a chunk of frames costs
one matrix product followed by a max-shifted log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
    DimMismatchError,
    EmptyFeaturesError,
    TooFewFramesError,
)
from .features import FeatureMatrix

_LOG_2PI = np.log(2.0 * np.pi)

# Frame-chunk size for E-step/scoring scratch matrices, in floats. The kernel
# makes several passes over each (n, C) chunk; at 8 MB rather than 32 MB an
# E-step at C = 256 or 2048 ran 1.2-1.4x faster on a 2-vCPU Xeon.
_MAX_CHUNK_FLOATS = 1_000_000

# Shifted joint log-likelihoods are raised to this floor before exp. numpy's
# vectorised exp is 6-200x slower on inputs whose result underflows (below
# about -708), and trained models put many components there. A term below
# e^-700 (about 1e-304) cannot change a row sum that is at least 1.
_EXP_FLOOR = -700.0

# Components assigned less than this much posterior mass keep their previous
# parameters instead of dividing by a vanishing count.
_MIN_COMPONENT_MASS = 1e-8

# Keeps a component on a few near-equal frames from an unbounded density.
_VARIANCE_FLOOR_FACTOR = 1e-3


@dataclass(frozen=True)
class GmmTrainConfig:
    """Binary-splitting EM schedule parameters.

    ``target_components`` must be a power of two; ``seed`` is carried into
    model metadata for the audit trail (the schedule itself draws no random
    numbers).
    """

    target_components: int = 2048
    em_iters_per_stage: int = 10
    seed: int = 0

    def __post_init__(self):
        c = self.target_components
        if c < 1 or (c & (c - 1)) != 0:
            raise ConfigError(
                f"target_components must be a power of two >= 1, got {c}")
        if self.em_iters_per_stage < 1:
            raise ConfigError("em_iters_per_stage must be >= 1")


@dataclass(frozen=True)
class DiagGmm:
    """Weights, means, and diagonal variances for C components in D dims."""

    weights: np.ndarray    # (C,), non-negative, sums to 1
    means: np.ndarray      # (C, D)
    variances: np.ndarray  # (C, D), strictly positive
    # (proj, bias) of the fused kernel, built once from the three arrays.
    _fused_tables: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_fused_tables", _tables(w, m, v))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def train_gmm(frames, config: GmmTrainConfig, return_history: bool = False):
    """Fit a diagonal GMM to pooled frames by the module's binary-splitting EM.

    The last model of :func:`gmm_stages`. With ``return_history`` the
    per-split-stage traces of average per-frame log-likelihood
    (``em_iters_per_stage`` values per stage, each evaluated at its
    iteration's starting parameters) are returned alongside the model.
    """
    history = []
    for gmm, trace in gmm_stages(frames, config):
        history.append(trace)
    return (gmm, history[1:]) if return_history else gmm


def gmm_stages(frames, config: GmmTrainConfig):
    """Yield ``(model, trace)`` at each stage of the binary-splitting schedule.

    First the 1-component start, with an empty trace, then the model after
    each split stage's EM iterations, up to ``config.target_components``.
    Nothing else enters a stage, so the C-component model is the same for
    every target of at least C. The frames are checked at the first
    ``next``. The design matrix ``[x², x]`` holds ``2·n·D`` float64 while
    the generator runs.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D (count, dim) array")
    n_frames = frames.shape[0]
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
    floor = _VARIANCE_FLOOR_FACTOR * var_basis

    gmm = DiagGmm(weights=np.array([1.0]), means=global_mean[None, :].copy(),
                  variances=np.maximum(global_var, floor)[None, :])
    yield gmm, []
    xx = _design(frames)
    while gmm.n_components < config.target_components:
        gmm = _split(gmm)
        stage_trace = []
        for _ in range(config.em_iters_per_stage):
            avg_ll, counts, sums = _accumulate(xx, gmm)
            stage_trace.append(avg_ll)
            gmm = _maximize(counts, sums, gmm, floor, n_frames)
        yield gmm, stage_trace


def _split(gmm):
    # Each component becomes two, means nudged along +/- 0.2 stddev.
    offset = 0.2 * np.sqrt(gmm.variances)
    return DiagGmm(weights=np.concatenate([gmm.weights, gmm.weights]) / 2.0,
                   means=np.vstack([gmm.means - offset, gmm.means + offset]),
                   variances=np.vstack([gmm.variances, gmm.variances]))


def _tables(weights, means, variances):
    """The fused kernel's ``proj`` (2D, C) and ``bias`` (C,) tables.

    A zero weight gives ``bias = -inf``; such a component never sets a row
    maximum, and the kernel's floor turns its term into a harmless e^-700.
    """
    inv = 1.0 / variances
    proj = np.hstack([-0.5 * inv, means * inv]).T
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    bias = log_w - 0.5 * (means.shape[1] * _LOG_2PI
                          + np.sum(np.log(variances), axis=1)
                          + np.sum(means ** 2 * inv, axis=1))
    return proj, bias


def _design(frames):
    """The (n, 2D) design matrix ``[x², x]`` of the fused kernel."""
    return np.hstack([frames * frames, frames])


def _log_likelihood_chunks(xx, proj, bias):
    """Yield ``(rows, e, s, frame_ll)`` for each chunk ``rows`` of ``xx``.

    ``xx`` is the (n, 2D) design matrix of :func:`_design`, and a chunk holds
    at most ``_MAX_CHUNK_FLOATS / C`` of its rows. ``joint = rows @ proj +
    bias`` is its (n, C) matrix of joint log-likelihoods and ``m`` the row
    maximum of that; ``e = exp(max(joint - m, _EXP_FLOOR))``, computed in
    place. ``s`` is the row sum of ``e``, so ``e / s`` are the component
    posteriors, and ``frame_ll = m + log s``.
    """
    chunk = max(1, _MAX_CHUNK_FLOATS // bias.shape[0])
    for lo in range(0, xx.shape[0], chunk):
        rows = xx[lo:lo + chunk]
        e = rows @ proj
        e += bias
        m = e.max(axis=1)
        e -= m[:, None]
        np.maximum(e, _EXP_FLOOR, out=e)
        np.exp(e, out=e)
        s = e.sum(axis=1)
        yield rows, e, s, m + np.log(s)


def _accumulate(xx, gmm):
    """One E-step: average log-likelihood, counts and ``[Σx², Σx]`` (C, 2D)."""
    total_ll = 0.0
    counts = np.zeros(gmm.n_components)
    sums = np.zeros((gmm.n_components, xx.shape[1]))
    for rows, e, s, frame_ll in _log_likelihood_chunks(xx, *gmm._fused_tables):
        e /= s[:, None]
        total_ll += frame_ll.sum()
        counts += e.sum(axis=0)
        sums += e.T @ rows
    return total_ll / xx.shape[0], counts, sums


def _maximize(counts, sums, old, floor, n_frames):
    weights = counts / n_frames
    weights = weights / weights.sum()

    live = counts > _MIN_COMPONENT_MASS
    safe_counts = np.where(live, counts, 1.0)[:, None]
    means = np.where(live[:, None], sums[:, old.dim:] / safe_counts, old.means)
    variances = np.where(
        live[:, None], sums[:, :old.dim] / safe_counts - means ** 2, old.variances)
    variances = np.maximum(variances, floor)
    return DiagGmm(weights=weights, means=means, variances=variances)


def frame_log_likelihoods(gmm: DiagGmm, frames) -> np.ndarray:
    """Per-frame mixture log-likelihoods via log-sum-exp (always finite)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise DimMismatchError(
            f"frames of shape {frames.shape} against a {gmm.dim}-dim model")
    chunks = _log_likelihood_chunks(_design(frames), *gmm._fused_tables)
    return np.concatenate([np.empty(0)] + [ll for *_, ll in chunks])


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
