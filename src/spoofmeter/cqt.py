"""Constant-Q magnitude spectrogram.

Geometrically spaced bins, each analysed with a Hann-windowed complex
exponential whose length keeps the ratio of center frequency to bandwidth
constant. Kernels are evaluated directly (no FFT sparsification): at the
corpus sizes this package targets, the O(K * N_k) per-frame cost is an
acceptable price for a correctness-first implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioSignal
from .errors import ConfigError, SignalTooShortError

# Bound on the scratch matrix (frames x window) built per bin group, in floats.
_MAX_GATHER_FLOATS = 8_000_000

# The package-wide default grid: the reference CQCC front end's (Todisco 2017).
DEFAULT_SAMPLE_RATE = 16000
DEFAULT_BINS_PER_OCTAVE = 96
DEFAULT_OCTAVES = 9
DEFAULT_FRAMES_PER_SECOND = 100


@dataclass(frozen=True)
class CqtConfig:
    """Analysis grid: ``bins_per_octave`` bins from ``f_min`` up to ``f_max``,

    advancing ``hop`` samples per frame. The Q factor and per-bin window
    lengths follow from ``bins_per_octave`` alone. Integer band edges are
    stored as floats, so equal grids have one serialized form.
    """

    bins_per_octave: int
    f_min: float
    f_max: float
    hop: int

    def __post_init__(self):
        object.__setattr__(self, "f_min", float(self.f_min))
        object.__setattr__(self, "f_max", float(self.f_max))
        if self.bins_per_octave < 1:
            raise ConfigError("bins_per_octave must be >= 1")
        if self.hop < 1:
            raise ConfigError("hop must be >= 1")
        if not (0.0 < self.f_min < self.f_max):
            raise ConfigError(
                f"need 0 < f_min < f_max, got f_min={self.f_min}, f_max={self.f_max}")
        if self.n_bins < 1:
            raise ConfigError("frequency range yields no bins")

    @property
    def q_factor(self) -> float:
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)

    @property
    def n_bins(self) -> int:
        return math.ceil(
            self.bins_per_octave * math.log2(self.f_max / self.f_min))

    @property
    def center_freqs(self) -> np.ndarray:
        k = np.arange(self.n_bins)
        return self.f_min * 2.0 ** (k / self.bins_per_octave)

    def window_lengths(self, sample_rate: int) -> np.ndarray:
        """Per-bin kernel lengths N_k = ceil(Q * rate / f_k)."""
        return np.ceil(self.q_factor * sample_rate / self.center_freqs).astype(int)


def default_cqt_config(sample_rate: int) -> CqtConfig:
    """Analysis grid used throughout this package unless overridden.

    f_max at Nyquist, nine octaves below it for f_min, 96 bins per octave,
    and a hop giving roughly 100 frames per second.
    """
    f_max = sample_rate / 2.0
    return CqtConfig(
        bins_per_octave=DEFAULT_BINS_PER_OCTAVE,
        f_min=f_max / 2.0 ** DEFAULT_OCTAVES,
        f_max=f_max,
        hop=round(sample_rate / DEFAULT_FRAMES_PER_SECOND),
    )


@dataclass(frozen=True)
class CqtSpectrogram:
    """Frames-by-bins magnitude matrix with its frequency and time axes."""

    magnitudes: np.ndarray     # (n_frames, n_bins), non-negative
    center_freqs: np.ndarray   # (n_bins,), Hz, geometric progression
    frame_times: np.ndarray    # (n_frames,), seconds

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[1]


def cqt_spectrogram(signal: AudioSignal, config: CqtConfig) -> CqtSpectrogram:
    """Compute the constant-Q magnitude spectrogram of ``signal``.

    Frame t, bin k holds the magnitude of the inner product between the
    signal centered at sample ``t * hop`` and a Hann-windowed complex
    exponential at ``f_k`` of length ``N_k = ceil(Q * rate / f_k)``,
    normalized by ``N_k``. Signal edges are zero padded. Requires the signal
    to be at least as long as the bin-0 window.
    """
    rate = signal.sample_rate
    if config.f_max > rate / 2.0 + 1e-9:
        raise ConfigError(
            f"f_max={config.f_max} exceeds Nyquist for rate {rate}")

    lengths = config.window_lengths(rate)
    longest = int(lengths[0])
    if len(signal) < longest:
        raise SignalTooShortError(
            f"signal of {len(signal)} samples is shorter than the "
            f"longest analysis window ({longest} samples)")

    hop = config.hop
    n_frames = (len(signal) - 1) // hop + 1
    centers = np.arange(n_frames) * hop
    freqs = config.center_freqs

    pad = longest // 2 + 2
    padded = np.pad(signal.samples, pad)

    magnitudes = np.empty((n_frames, config.n_bins))
    # ceil() makes runs of adjacent bins share a window length; batch each run
    # into one matrix product. Fixed bin and frame order keeps the reduction
    # deterministic.
    for win_len, k_lo, k_hi in _length_groups(lengths):
        n = np.arange(win_len) - (win_len - 1) / 2.0
        window = np.hanning(win_len) / win_len
        phase = 2.0 * np.pi * np.outer(n, freqs[k_lo:k_hi]) / rate
        kernel_re = window[:, None] * np.cos(phase)
        kernel_im = window[:, None] * np.sin(phase)

        starts = centers - win_len // 2 + pad
        windows = sliding_window_view(padded, win_len)
        chunk = max(1, _MAX_GATHER_FLOATS // win_len)
        for lo in range(0, n_frames, chunk):
            segs = windows[starts[lo:lo + chunk]]
            re = segs @ kernel_re
            im = segs @ kernel_im
            magnitudes[lo:lo + chunk, k_lo:k_hi] = np.hypot(re, im)

    return CqtSpectrogram(
        magnitudes=magnitudes,
        center_freqs=freqs,
        frame_times=centers / rate,
    )


def _length_groups(lengths):
    """Yield (window_length, first_bin, one_past_last_bin) for runs of equal length."""
    start = 0
    for k in range(1, len(lengths) + 1):
        if k == len(lengths) or lengths[k] != lengths[start]:
            yield int(lengths[start]), start, k
            start = k
