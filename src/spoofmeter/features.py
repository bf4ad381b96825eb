"""CQCC feature extraction.

Pipeline (:func:`extract_features`), in two stages. :func:`static_cepstra`:
resampling to the operating rate -> constant-Q spectrogram -> floored log
power -> not-a-knot cubic-spline resampling of the geometric frequency axis
onto a uniform grid, in piecewise-Hermite form (one tridiagonal slope solve
for all frames, then a sparse map with 4 terms per grid point; on CQT knots
within ``1e-10 (1 + max |y|)`` of ``scipy.interpolate.CubicSpline``) ->
orthonormal DCT-II truncated to the requested cepstral order, c0 included,
as one product with a cached closed-form basis. The CQT and log power see
the whole utterance; the spline and DCT run on blocks of frames, so the
resampled spectrogram of the whole utterance never exists, and the
cepstra equal those of the whole-array composition bit for bit.
:func:`assemble_features`: c0 kept or dropped -> optional delta and
double-delta blocks -> optional per-utterance mean/variance normalization.

No speech-activity detection is applied anywhere: frame count depends only
on signal length and hop.

The per-file feature cache lives here too: :func:`features_for_file`
memoizes :func:`extract_features` of one WAV as a ``.npy`` entry, and can
take the static cepstra from a directory of saved ones the caller owns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_array

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

# Most points a uniform grid may have, 32 times the default 4,067, checked
# when a FeatureConfig is built. At the cap a 9 s resampled spectrogram is
# already 0.9 GB; f_min = 1e-300 Hz derives a grid of 6.4e304 points.
_MAX_GRID_POINTS = 2 ** 17

# Fewest frames per block of the spline and DCT in static_cepstra, which
# splits an utterance into equal blocks of this many to twice this many
# frames. Blocks keep the (frames, grid) resampled spectrogram out of memory
# (29 MB for 8.9 s at the default grid). Short ones would change the bits:
# on a 2-vCPU Xeon, OpenBLAS summed the 4,067-point DCT product in another
# order at 16 rows or fewer (8 with one thread), moving cepstra by 1.6e-12;
# 64 rows and more matched the whole-array product at both thread counts.
_CEPSTRA_FRAMES = 128

# Part of every feature cache key. Bump it whenever extraction output changes,
# even in the last bits, so that entries an older front end wrote are rebuilt.
_FRONTEND_REVISION = 8


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
    # One new array, floored and logged in place: with the magnitudes, 12.6
    # MB on 890 x 864 frames by bins, against 18.7 for three arrays.
    power = np.square(spec.magnitudes)
    np.maximum(power, POWER_FLOOR, out=power)
    return np.log(power, out=power)


def default_grid_size(center_freqs, period: int) -> int:
    """Uniform grid length for a geometric axis: ceil(d * 2**(octaves - 1)).

    The sampling period is anchored to the lowest octave, so ``period``
    points cover it and each higher octave doubles the count.
    """
    center_freqs = np.asarray(center_freqs, dtype=np.float64)
    octaves = math.log2(center_freqs[-1] / center_freqs[0])
    return max(2, math.ceil(period * 2.0 ** (octaves - 1.0)))


def _knot_slopes(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Not-a-knot spline slopes at the knots of each row of ``values``, as a
    ``(bins, frames)`` array.

    One tridiagonal solve for all frames, with the boundary rows of
    ``scipy.interpolate.CubicSpline``: not-a-knot from 4 bins, the parabola
    through 3 and the line through 2. The right-hand side is built C-ordered
    ``(frames, bins)``, so its transpose is the column-major ``(bins,
    frames)`` block that LAPACK solves in place, with no copy.
    """
    n = knots.shape[0]
    dx = np.diff(knots)
    slope = np.diff(values, axis=1) / dx
    band = np.zeros((3, n))  # upper, main and lower diagonals
    rhs = np.empty(values.shape)
    band[0, 2:] = dx[:-1]
    band[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    band[2, :-2] = dx[1:]
    rhs[:, 1:-1] = 3.0 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    if n == 2:
        band[1] = 1.0
        rhs[:] = slope
    elif n == 3:
        band[0, 1] = band[1, 0] = band[1, 2] = band[2, 1] = 1.0
        rhs[:, 0] = 2.0 * slope[:, 0]
        rhs[:, -1] = 2.0 * slope[:, -1]
    else:
        head, tail = knots[2] - knots[0], knots[-1] - knots[-3]
        band[1, 0], band[0, 1] = dx[1], head
        band[1, -1], band[2, -2] = dx[-2], tail
        rhs[:, 0] = ((dx[0] + 2.0 * head) * dx[1] * slope[:, 0]
                     + dx[0] ** 2 * slope[:, 1]) / head
        rhs[:, -1] = (dx[-1] ** 2 * slope[:, -2]
                      + (2.0 * tail + dx[-1]) * dx[-2] * slope[:, -1]) / tail
    return solve_banded((1, 1), band, rhs.T, overwrite_ab=True,
                        overwrite_b=True, check_finite=False)


def _hermite_map(knots: np.ndarray, grid: np.ndarray) -> csr_array:
    """Sparse ``(len(grid), 2 len(knots))`` map from ``[values; slopes]`` to
    the cubic Hermite interpolant on ``grid``: 4 non-zeros per row, the two
    values and two slopes at the ends of the point's interval."""
    n = knots.shape[0]
    idx = np.clip(np.searchsorted(knots, grid, side="right") - 1, 0, n - 2)
    h = knots[idx + 1] - knots[idx]
    t = (grid - knots[idx]) / h
    s = 1.0 - t
    cols = np.stack([idx, idx + 1, n + idx, n + idx + 1], axis=1)
    weights = np.stack([(1.0 + 2.0 * t) * s * s, t * t * (3.0 - 2.0 * t),
                        t * s * s * h, -t * t * s * h], axis=1)
    indptr = np.arange(0, 4 * grid.shape[0] + 1, 4)
    return csr_array((weights.ravel(), cols.ravel(), indptr),
                     shape=(grid.shape[0], 2 * n))


def uniform_resample(log_spec, center_freqs, period: int,
                     n_points: int | None = None):
    """Interpolate each frame's log spectrum onto a uniform frequency grid.

    Returns ``(resampled, grid)`` where ``grid`` runs linearly from the first
    to the last center frequency, by the not-a-knot cubic spline: exact on
    linear data, the line on 2 bins and the parabola on 3. Pass ``n_points``
    to pin a grid recorded in a model file.

    The spline is evaluated in piecewise-Hermite form (de Boor, "A Practical
    Guide to Splines"): the knot slopes come from one tridiagonal solve for
    all frames, and each grid point is a 4-term sum of its interval's two
    values and two slopes, applied as one sparse product. On knots whose
    gaps lie within a factor of 10 of each other, as CQT knots do, it agrees
    with ``scipy.interpolate.CubicSpline`` within
    ``1e-10 (1 + max |log_spec|)``.
    ``log_spec`` must be finite and ``center_freqs`` strictly increasing, or
    ``ValueError`` is raised.
    """
    log_spec = np.asarray(log_spec, dtype=np.float64)
    center_freqs = np.asarray(center_freqs, dtype=np.float64)
    n_bins = center_freqs.shape[0]
    if n_bins < 2:
        raise TooFewBinsError("uniform resampling needs at least 2 bins")
    if log_spec.ndim != 2 or log_spec.shape[1] != n_bins:
        raise ValueError("log_spec must be (frames, bins) matching center_freqs")
    if center_freqs.ndim != 1 or not (np.all(np.isfinite(center_freqs))
                                      and np.all(np.diff(center_freqs) > 0.0)):
        raise ValueError("center_freqs must be finite and strictly increasing")
    if not np.all(np.isfinite(log_spec)):
        raise ValueError("log_spec must be finite")

    if n_points is None:
        n_points = default_grid_size(center_freqs, period)
    if n_points < 2:
        raise ConfigError("grid must have at least 2 points")
    grid = np.linspace(center_freqs[0], center_freqs[-1], n_points)

    # C-ordered (2 bins, frames): the sparse product copies any other layout.
    stacked = np.empty((2 * n_bins, log_spec.shape[0]))
    stacked[n_bins:] = _knot_slopes(center_freqs, log_spec)
    stacked[:n_bins] = log_spec.T
    return (_hermite_map(center_freqs, grid) @ stacked).T, grid


@functools.lru_cache(maxsize=8)
def _dct_basis(n_points: int, num_ceps: int) -> np.ndarray:
    """Read-only ``(n_points, num_ceps + 1)`` orthonormal DCT-II basis.

    Column 0 is ``sqrt(1/n)`` and column k is
    ``sqrt(2/n) cos(pi (2g + 1) k / 2n)``, with ``(2g + 1) k`` reduced modulo
    ``4n`` in integers so that every cosine argument lies in ``[0, 2 pi)``.
    """
    g = np.arange(n_points, dtype=np.int64)[:, None]
    k = np.arange(num_ceps + 1, dtype=np.int64)[None, :]
    turns = ((2 * g + 1) * k) % (4 * n_points)
    basis = math.sqrt(2.0 / n_points) * np.cos(np.pi * turns / (2 * n_points))
    basis[:, 0] = math.sqrt(1.0 / n_points)
    basis.setflags(write=False)
    return basis


def dct_truncate(uniform_log_spec, num_ceps: int,
                 include_zeroth: bool) -> np.ndarray:
    """Orthonormal DCT-II per frame, keeping coefficients 1..num_ceps.

    Coefficient 0 (the energy term) is prepended when ``include_zeroth``.
    Computed as one product with the cached c0-inclusive basis of the grid,
    then sliced, so the result without c0 equals the one with it, minus its
    first column, bit for bit.
    """
    mat = np.asarray(uniform_log_spec, dtype=np.float64)
    if mat.shape[1] < num_ceps + 1:
        raise GridTooSmallError(
            f"grid of {mat.shape[1]} points cannot yield {num_ceps} "
            f"cepstral coefficients")
    coeffs = mat @ _dct_basis(mat.shape[1], num_ceps)
    return coeffs[:, 0 if include_zeroth else 1:]


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
    for the DCT and at most ``_MAX_GRID_POINTS``, ``f_max`` within Nyquist,
    which no ``sample_rate`` of 0 or less has, and a longest CQT window of
    at most ``cqt._MAX_WINDOW`` samples.
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
        if grid > _MAX_GRID_POINTS:
            raise ConfigError(f"uniform grid of {grid:.3g} points exceeds "
                              f"the limit of {_MAX_GRID_POINTS}")
        self.cqt.check_rate(self.sample_rate)

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

    Resampling to the operating rate, CQT, log power, spline and DCT. It
    depends on ``sample_rate``, ``cqt``, ``num_ceps`` and the effective grid
    size only, not on block selection or CMVN.

    The CQT and log power run on the whole utterance, then the spline and
    DCT on consecutive blocks of equal size, each of ``_CEPSTRA_FRAMES``
    frames or more unless the utterance is shorter. Each frame's spline is
    independent of the others, and no block is short enough for BLAS to
    change how it sums the DCT product, so the result equals the
    whole-array composition bit for bit.
    """
    if signal.sample_rate != config.sample_rate:
        signal = resample(signal, config.sample_rate)
    # The magnitudes go once their log power exists. With blocks this small
    # the CQT sets the peak of memory (19 MB for 8.9 s at the default grid).
    logp = log_power(cqt_spectrogram(signal, config.cqt))
    blocks = []
    for block in np.array_split(logp, max(1, len(logp) // _CEPSTRA_FRAMES)):
        uniform, _ = uniform_resample(block, config.cqt.center_freqs,
                                      config.cqcc.resample_period,
                                      n_points=config.effective_grid_size)
        blocks.append(dct_truncate(uniform, config.cqcc.num_ceps, True))
    return np.vstack(blocks)


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


def memoized_static_cepstra(config: FeatureConfig, path: str,
                            cepstra_dir) -> np.ndarray:
    """:func:`static_cepstra` of the WAV at ``path``, kept in ``cepstra_dir``.

    ``cepstra_dir`` is a directory the caller owns, or ``None`` to keep
    nothing. Cepstra saved there for this file and front end are loaded;
    others are computed and saved, whole or not at all, so the processes
    that share the directory compute a file's once between them, but for
    those that miss it at the same time. They load as the same float64.
    """
    if cepstra_dir is None:
        return static_cepstra(config, read_wav(path))
    key = json.dumps([path, config.sample_rate, to_doc(config.cqt),
                      config.cqcc.num_ceps, config.effective_grid_size])
    saved = Path(cepstra_dir) / f"{hashlib.sha256(key.encode()).hexdigest()[:24]}.npy"
    try:
        return np.load(saved, allow_pickle=False)
    except FileNotFoundError:
        pass
    cepstra = static_cepstra(config, read_wav(path))
    with replacing(saved) as tmp, open(tmp, "wb") as f:
        np.save(f, cepstra, allow_pickle=False)
    return cepstra


def feature_cache_path(config: FeatureConfig, path: str, cache_dir) -> Path:
    """Where :func:`features_for_file` keeps ``path``'s features in ``cache_dir``."""
    return Path(cache_dir) / f"{_cache_key(config, path)}.feat"


def features_for_file(config: FeatureConfig, path: str, utt_id: str,
                      cache_dir, cepstra_dir=None) -> FeatureMatrix:
    """:func:`extract_features` of the WAV at ``path``, cached in ``cache_dir``.

    ``None`` means no cache. A missing or unreadable entry (damaged, or in an
    older format), or one of another width or with no frames, is a miss: the
    features are extracted again and the entry replaced. On a miss the static
    cepstra go through ``cepstra_dir`` (:func:`memoized_static_cepstra`).
    """
    cache_file = None
    if cache_dir is not None:
        cache_file = feature_cache_path(config, path, cache_dir)
        try:
            feats = read_feature_cache(cache_file, source_id=utt_id)
            if feats.dim == config.output_dim and feats.n_frames > 0:
                return feats
        except (FileNotFoundError, ValueError):
            pass
    feats = assemble_features(
        config.cqcc, memoized_static_cepstra(config, path, cepstra_dir),
        source_id=utt_id)
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        write_feature_cache(cache_file, feats)
    return feats
