"""CQCC feature extraction.

Pipeline (:func:`extract_features`), in two stages. :func:`static_cepstra`:
resampling to the operating rate -> constant-Q spectrogram -> floored log
power -> cubic-spline resampling of the geometric frequency axis onto a
uniform grid -> orthonormal DCT-II truncated to the requested cepstral
order, c0 included. :func:`assemble_features`: c0 kept or dropped ->
optional delta and double-delta blocks -> optional per-utterance
mean/variance normalization.

No speech-activity detection is applied anywhere: frame count depends only
on signal length and hop.

The per-file feature cache lives here too: :func:`features_for_file`
memoizes :func:`extract_features` of one WAV as a ``.npy`` entry, and can
take the static cepstra from an in-memory memo the caller owns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.fft import dct
from scipy.interpolate import CubicSpline

from .audio_io import AudioSignal, read_wav, resample
from .config import to_doc
from .cqt import (DEFAULT_SAMPLE_RATE, CqtConfig, CqtSpectrogram,
                  cqt_spectrogram, default_cqt_config)
from .errors import ConfigError, GridTooSmallError, TooFewBinsError
from .tables import replacing

# Floor applied to squared magnitudes before the log. Silent frames stay
# finite without activity detection.
POWER_FLOOR = 1e-20

# Two-sided regression window for deltas (5-frame regression).
DELTA_WINDOW = 2

# Part of every feature cache key. Bump it whenever extraction output changes,
# even in the last bits, so that entries an older front end wrote are rebuilt.
_FRONTEND_REVISION = 5


@dataclass(frozen=True)
class CqccConfig:
    """Front-end shape: cepstral order, energy coefficient, block selection.

    The output dimension is ``(num_ceps + include_zeroth)`` times the number
    of enabled blocks; at least one of static/delta/double-delta must be on.
    Defaults give the delta+double-delta front end without normalization.
    """

    num_ceps: int = 29
    include_zeroth: bool = False
    use_static: bool = False
    use_delta: bool = True
    use_delta2: bool = True
    apply_cmvn: bool = False
    resample_period: int = 16

    def __post_init__(self):
        if self.num_ceps < 1:
            raise ConfigError("num_ceps must be >= 1")
        if self.resample_period < 1:
            raise ConfigError("resample_period must be >= 1")
        if not (self.use_static or self.use_delta or self.use_delta2):
            raise ConfigError(
                "at least one of use_static/use_delta/use_delta2 must be enabled")

    @property
    def n_blocks(self) -> int:
        return int(self.use_static) + int(self.use_delta) + int(self.use_delta2)

    @property
    def output_dim(self) -> int:
        return (self.num_ceps + int(self.include_zeroth)) * self.n_blocks


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-utterance frames-by-dimensions feature array plus its source id."""

    frames: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("frames must be a 2-D array")
        if frames.size and not np.all(np.isfinite(frames)):
            raise ValueError("feature entries must be finite")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def log_power(spec: CqtSpectrogram) -> np.ndarray:
    """log(max(magnitude^2, POWER_FLOOR)), same shape as the spectrogram."""
    return np.log(np.maximum(spec.magnitudes ** 2, POWER_FLOOR))


def default_grid_size(center_freqs, period: int) -> int:
    """Uniform grid length for a geometric axis: ceil(d * 2**(octaves - 1)).

    The sampling period is anchored to the lowest octave, so ``period``
    points cover it and each higher octave doubles the count.
    """
    center_freqs = np.asarray(center_freqs, dtype=np.float64)
    octaves = math.log2(center_freqs[-1] / center_freqs[0])
    return max(2, math.ceil(period * 2.0 ** (octaves - 1.0)))


def uniform_resample(log_spec, center_freqs, period: int,
                     n_points: int | None = None):
    """Interpolate each frame's log spectrum onto a uniform frequency grid.

    Returns ``(resampled, grid)`` where ``grid`` runs linearly from the first
    to the last center frequency, by the not-a-knot cubic spline: exact on
    linear data, the line on 2 bins and the parabola on 3. Pass ``n_points``
    to pin a grid recorded in a model file.
    """
    log_spec = np.asarray(log_spec, dtype=np.float64)
    center_freqs = np.asarray(center_freqs, dtype=np.float64)
    n_bins = center_freqs.shape[0]
    if n_bins < 2:
        raise TooFewBinsError("uniform resampling needs at least 2 bins")
    if log_spec.ndim != 2 or log_spec.shape[1] != n_bins:
        raise ValueError("log_spec must be (frames, bins) matching center_freqs")

    if n_points is None:
        n_points = default_grid_size(center_freqs, period)
    if n_points < 2:
        raise ConfigError("grid must have at least 2 points")
    grid = np.linspace(center_freqs[0], center_freqs[-1], n_points)

    return CubicSpline(center_freqs, log_spec, axis=1)(grid), grid


def dct_truncate(uniform_log_spec, num_ceps: int,
                 include_zeroth: bool) -> np.ndarray:
    """Orthonormal DCT-II per frame, keeping coefficients 1..num_ceps.

    Coefficient 0 (the energy term) is prepended when ``include_zeroth``.
    """
    mat = np.asarray(uniform_log_spec, dtype=np.float64)
    if mat.shape[1] < num_ceps + 1:
        raise GridTooSmallError(
            f"grid of {mat.shape[1]} points cannot yield {num_ceps} "
            f"cepstral coefficients")
    coeffs = dct(mat, type=2, norm="ortho", axis=1)
    lo = 0 if include_zeroth else 1
    return coeffs[:, lo:num_ceps + 1]


def _delta(mat: np.ndarray, window: int = DELTA_WINDOW) -> np.ndarray:
    # Regression slope over a 2*window+1 frame context, edges replicated.
    n = mat.shape[0]
    padded = np.pad(mat, ((window, window), (0, 0)), mode="edge")
    num = np.zeros_like(mat)
    for tau in range(1, window + 1):
        num += tau * (padded[window + tau:window + tau + n]
                      - padded[window - tau:window - tau + n])
    return num / (2.0 * sum(tau * tau for tau in range(1, window + 1)))


def append_deltas(static_feats, config: CqccConfig,
                  source_id: str = "") -> FeatureMatrix:
    """Assemble the enabled blocks: static first, then delta, then double delta.

    Deltas are regression slopes with edge-replication padding, so a
    single-frame utterance gets all-zero dynamic blocks.
    """
    base = np.asarray(static_feats, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] < 1:
        raise ValueError("need at least one frame of static features")

    blocks = []
    if config.use_static:
        blocks.append(base)
    if config.use_delta or config.use_delta2:
        d1 = _delta(base)
        if config.use_delta:
            blocks.append(d1)
        if config.use_delta2:
            blocks.append(_delta(d1))
    return FeatureMatrix(np.hstack(blocks), source_id=source_id)


def cmvn(feats: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance standardization: zero mean, unit variance per dimension.

    Dimensions with variance below 1e-12 are set to zero.
    """
    frames = feats.frames
    if frames.shape[0] < 1:
        raise ValueError("cmvn needs at least one frame")
    mean = frames.mean(axis=0)
    var = frames.var(axis=0)
    out = np.zeros_like(frames)
    keep = var >= 1e-12
    out[:, keep] = (frames[:, keep] - mean[keep]) / np.sqrt(var[keep])
    return FeatureMatrix(out, source_id=feats.source_id)


@dataclass(frozen=True)
class FeatureConfig:
    """Everything that determines the extraction pipeline, with no hidden state.

    ``grid_size`` pins the uniform resampling grid; when ``None`` it is
    derived from the CQT geometry and the resampling period. Models store the
    pinned value, in a section of their own, so training and scoring always
    agree.

    A config constructs only if its front end can run; else it raises
    :class:`ConfigError`. Its rules: at least 2 CQT bins for the spline, an
    effective grid (pinned or derived) of at least ``num_ceps + 1`` points
    for the DCT, and ``f_max`` within Nyquist, which no ``sample_rate`` of 0
    or less has.
    """

    sample_rate: int
    cqt: CqtConfig
    cqcc: CqccConfig
    grid_size: int | None = field(default=None, metadata={"doc": False})

    def __post_init__(self):
        if self.cqt.n_bins < 2:
            raise ConfigError("CQT grid of 1 bin; uniform resampling needs "
                              "at least 2 bins")
        grid, num_ceps = self.effective_grid_size, self.cqcc.num_ceps
        if grid < num_ceps + 1:
            raise ConfigError(f"uniform grid of {grid} points cannot yield "
                              f"{num_ceps} cepstral coefficients")
        if self.cqt.f_max > self.sample_rate / 2.0 + 1e-9:
            raise ConfigError(
                f"cqt f_max={self.cqt.f_max} exceeds Nyquist for "
                f"{self.sample_rate} Hz")

    @property
    def effective_grid_size(self) -> int:
        if self.grid_size is not None:
            return self.grid_size
        return default_grid_size(self.cqt.center_freqs, self.cqcc.resample_period)

    @property
    def output_dim(self) -> int:
        return self.cqcc.output_dim

    def pinned(self) -> "FeatureConfig":
        """Copy with the grid size made explicit."""
        return replace(self, grid_size=self.effective_grid_size)


def default_feature_config(sample_rate: int = DEFAULT_SAMPLE_RATE) -> FeatureConfig:
    """Delta+double-delta CQCCs at 16 kHz: the package-wide default setup."""
    return FeatureConfig(sample_rate, default_cqt_config(sample_rate),
                         CqccConfig())


def static_cepstra(config: FeatureConfig, signal: AudioSignal) -> np.ndarray:
    """First stage: static cepstra with c0, ``(frames, num_ceps + 1)``.

    Resampling to the operating rate, CQT, log power, spline and DCT. The
    result is a contiguous copy, so it keeps no full DCT row alive. It
    depends on ``sample_rate``, ``cqt``, ``num_ceps`` and the effective grid
    size only, not on block selection or CMVN.
    """
    if signal.sample_rate != config.sample_rate:
        signal = resample(signal, config.sample_rate)
    # The spectrogram is dropped before the spline stage, the peak of memory.
    logp = log_power(cqt_spectrogram(signal, config.cqt))
    uniform, _ = uniform_resample(logp, config.cqt.center_freqs,
                                  config.cqcc.resample_period,
                                  n_points=config.effective_grid_size)
    return dct_truncate(uniform, config.cqcc.num_ceps, True).copy()


def assemble_features(cqcc: CqccConfig, ceps,
                      source_id: str = "") -> FeatureMatrix:
    """Second stage: keep or drop c0, append the deltas, apply CMVN.

    ``ceps`` is the output of :func:`static_cepstra`.
    """
    ceps = np.asarray(ceps, dtype=np.float64)
    feats = append_deltas(ceps if cqcc.include_zeroth else ceps[:, 1:], cqcc,
                          source_id=source_id)
    return cmvn(feats) if cqcc.apply_cmvn else feats


def extract_features(config: FeatureConfig, signal: AudioSignal,
                     source_id: str = "") -> FeatureMatrix:
    """Full front end for one utterance, resampled to the operating rate first.

    :func:`static_cepstra` then :func:`assemble_features`; the output
    dimension is ``config.output_dim``. Without CMVN the result is
    bit-reproducible across runs for a given signal and configuration.
    """
    # Resampled here as well, so that this frame does not hold the caller's
    # signal at its own rate through the CQT (1.6 MB for 8.9 s at 22.05 kHz).
    if signal.sample_rate != config.sample_rate:
        signal = resample(signal, config.sample_rate)
    return assemble_features(config.cqcc, static_cepstra(config, signal),
                             source_id=source_id)


def write_feature_cache(path, feats: FeatureMatrix) -> None:
    """Write ``feats`` as a ``.npy`` array (float64, frames by dimensions).

    Written through :func:`~spoofmeter.tables.replacing`, so that a
    concurrent reader sees the whole entry or none.
    """
    with replacing(path) as tmp, open(tmp, "wb") as f:
        np.save(f, feats.frames, allow_pickle=False)


def read_feature_cache(path, source_id: str = "") -> FeatureMatrix:
    """Read an entry written by :func:`write_feature_cache`.

    Raises ``ValueError`` naming ``path`` unless the file holds a finite 2-D
    float64 array, and ``FileNotFoundError`` if there is no file.
    """
    with open(path, "rb") as f:
        # np.load documents no set of errors: damaged bytes raise ValueError,
        # EOFError, SyntaxError, tokenize.TokenError or zipfile.BadZipFile.
        try:
            frames = np.load(f, allow_pickle=False)
            if getattr(frames, "dtype", None) != np.float64:
                raise ValueError("not a float64 array")
            return FeatureMatrix(frames, source_id=source_id)
        except Exception as exc:
            raise ValueError(
                f"{path}: unreadable feature cache entry ({exc})") from exc


def _cache_key(config: FeatureConfig, path: str) -> str:
    # The WAV's size and mtime make a file replaced in place a new key.
    stat = os.stat(path)
    doc = [_FRONTEND_REVISION, str(Path(path).resolve()), stat.st_size,
           stat.st_mtime_ns, to_doc(config), config.effective_grid_size]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:24]


def features_for_file(config: FeatureConfig, path: str, utt_id: str,
                      cache_dir,
                      static_memo: dict | None = None) -> FeatureMatrix:
    """:func:`extract_features` of the WAV at ``path``, cached in ``cache_dir``.

    ``None`` means no cache. A missing or unreadable entry (damaged, or in an
    older format), or one of another width or with no frames, is a miss: the
    features are extracted again and the entry replaced. On a miss the static
    cepstra come from ``static_memo``, a dict the caller owns, when it holds
    them for this file and front end, and are stored there when it does not.
    """
    cache_file = None
    if cache_dir is not None:
        cache_file = Path(cache_dir) / f"{_cache_key(config, path)}.feat"
        try:
            feats = read_feature_cache(cache_file, source_id=utt_id)
            if feats.dim == config.output_dim and feats.n_frames > 0:
                return feats
        except (FileNotFoundError, ValueError):
            pass
    memo = {} if static_memo is None else static_memo
    key = (path, config.sample_rate, config.cqt, config.cqcc.num_ceps,
           config.effective_grid_size)
    if key not in memo:
        memo[key] = static_cepstra(config, read_wav(path))
    feats = assemble_features(config.cqcc, memo[key], source_id=utt_id)
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        write_feature_cache(cache_file, feats)
    return feats
