"""Constant-Q magnitude spectrogram.

Geometrically spaced bins, each analysed with a Hann-windowed complex
exponential whose length keeps the ratio of center frequency to bandwidth
constant. Each bin takes the cheaper of two forms of the same inner
products, chosen from its window length N_k alone:

- Direct form, for short windows: hop-blocked matrix products against a
  kernel plan built once per grid (:func:`_direct_plan`). The span that the
  direct windows cover is cut into hop-sized row blocks; block b holds the
  windowed cosine and sine kernels of every bin whose window touches it,
  zero where the window does not reach. The signal, cut into rows of one
  hop, is then frame t's window in rows t .. t + n_blocks - 1, so all
  direct bins are a sum of n_blocks contiguous GEMMs. It costs
  O(n_frames * N_k) per bin, as the inner products themselves do.
- Band form, for long windows, as in the nonstationary-Gabor CQT (Velasco et
  al., 2011) with kernel spectra as in Brown & Puckette (1992): one FFT of
  the whole signal is shared by all bins; each bin evaluates its kernel's
  DFT in closed form on a band of O(L / N_k) DFT bins around f_k, folds it
  onto the frame grid and takes one short inverse FFT. Over the whole
  spectrum it is exact; the band cut drops only the kernel's far sidelobes.

At the reference grid (96 bins per octave over 9 octaves, 8.9 s at 16 kHz)
a per-bin direct form alone took 36-40 s and the mixture takes well under
1 s. The direct form stays for short windows because there the band, ±80
main-lobe spacings, spans thousands of DFT bins and costs more than the
window itself. The blocks batch direct bins by zero-padding each kernel to
the blocks its window touches, not by shared window lengths: the unrounded
lengths of adjacent bins differ by ``rate / f_(k+1)``, more than 2 samples
below Nyquist, so no two bins ever share one. As in Brown & Puckette (1992),
the kernels are computed once per analysis grid and sample rate and cached,
not once per signal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio_io import AudioSignal, cached_array
from .errors import ConfigError, SignalTooShortError

# The package-wide default grid: the reference CQCC front end's (Todisco 2017).
DEFAULT_SAMPLE_RATE = 16000
DEFAULT_BINS_PER_OCTAVE = 96
DEFAULT_OCTAVES = 9
DEFAULT_FRAMES_PER_SECOND = 100

# Half-width of a long bin's kernel band, in main-lobe spacings L / N_k. The
# cut drops the kernel's far sidelobes, so quiet frames lose the leakage of
# loud components outside the band. Over five 8.9 s noise signals at the
# reference grid, bursty ones with a -80 to -48 dB floor among them, the
# largest log-power change against the direct form was 2.5 nats at 32 (with
# a crossover of 1500), 0.17 at 64 and 0.071 at 80; at 80 no feature moved
# by more than 0.003 and no magnitude by 2.5e-5 of its bin's maximum.
_BAND_HALF_WIDTH = 80

# Window length, in samples, from which a bin takes the band form. Its cost
# grows as L / N_k and the direct form's as n_frames * N_k. 3000 keeps the
# shortest band-form bins, where the cut errs most, direct. With the blocked
# direct form, on a 2-vCPU Xeon at hop 160, the 8.9 s reference-grid CQT
# took 0.32-0.42 s at 3000 (a 6.9 MB plan), 0.25-0.36 s at 4000 (9.2 MB) and
# 0.28-0.36 s at 6000 (13.8 MB). It stays at 3000: at 4000 the benchmark's
# paper-frontend peak RSS rose 6.9 % over the per-bin direct form's (5.3 %
# at 3000) for 4-9 % more speed, and 6000 would leave MEDIUM_CQT in the
# tests, whose bin-0 window is 4369 samples, without band-form bins.
_BAND_MIN_WINDOW = 3000

# Frames per pass of the direct form's block products. It bounds the
# accumulator and each product to a few MB at the reference grid.
_DIRECT_FRAMES = 256


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


def _dirichlet(u: np.ndarray, n: int) -> np.ndarray:
    """``sin(pi n u) / sin(pi u)`` for ``|u| < 1``, with its limit n at u = 0.

    It is the sum of ``exp(2j pi u m)`` over m < n without its phase
    ``exp(1j pi u (n - 1))``.
    """
    den = np.sin(np.pi * u)
    zero = den == 0.0
    den[zero] = 1.0
    ratio = np.sin(np.pi * n * u) / den
    ratio[zero] = n
    return ratio


def _band_column(spectrum: np.ndarray, n_fold: int, win_len: int,
                 freq_per_sample: float, n_frames: int) -> np.ndarray:
    """One bin's magnitudes from ``spectrum``, the length-L FFT of the signal.

    The conjugate kernel gives the same magnitudes. Its DFT at bin q is
    ``exp(1j pi q (N - 1) / L)`` times three Dirichlet kernels, at
    ``u = q / L - f_k / rate`` and ``u +- 1 / (N - 1)`` (``np.hanning(N) / N``
    is a sum of three complex exponentials). It is evaluated on the
    ``2 * _BAND_HALF_WIDTH * L / N`` bins q nearest ``f_k * L / rate``; N >= 4
    keeps every u within (-1, 1). Frame t's window starts at
    ``t * hop - N // 2``, so with that phase only a half-sample ramp is left,
    for even N. As ``L = M * hop``, frame t is
    ``(1/L) sum_q Y[q] G[q] exp(2j pi q t / M)``: the band folded modulo M,
    one length-M inverse FFT, times M / L.
    """
    size = len(spectrum)
    width = min(2 * math.ceil(_BAND_HALF_WIDTH * size / win_len) + 1, size)
    q = round(freq_per_sample * size) - width // 2 + np.arange(width)
    u = q / size - freq_per_sample
    step = 1.0 / (win_len - 1)
    kernel = (0.5 * _dirichlet(u, win_len)
              + 0.25 * (_dirichlet(u + step, win_len)
                        + _dirichlet(u - step, win_len))) / win_len
    band = spectrum[q % size] * kernel
    if win_len % 2 == 0:
        band *= np.exp(-1j * np.pi * q / size)
    fold = q % n_fold
    folded = (np.bincount(fold, band.real, n_fold)
              + 1j * np.bincount(fold, band.imag, n_fold))
    return np.abs(scipy.fft.ifft(folded)[:n_frames]) * (n_fold / size)


@dataclass(frozen=True)
class _DirectPlan:
    """Kernels of the direct-form bins, cut into hop-sized row blocks."""

    first: int                   # direct bins are first .. n_bins - 1
    base: int                    # smallest window start, from the frame center
    blocks: tuple[np.ndarray, ...]   # (hop, 2 * n_cols) each, read-only


@functools.lru_cache(maxsize=8)
def _direct_plan(config: CqtConfig, rate: int,
                 band_min_window: float) -> _DirectPlan:
    """The direct form's kernels for bins with ``N_k < band_min_window``.

    Bin k's window covers offsets ``-(N_k // 2)`` to ``-(N_k // 2) + N_k - 1``
    from the frame center; ``base`` is the longest one's start. Block b covers
    the ``hop`` offsets from ``base + b * hop``. Its columns interleave the
    cosine and sine kernels, ``np.hanning(N_k) / N_k`` times ``cos`` and
    ``sin`` of ``2 pi f_k n / rate`` (n centered), of every bin whose window
    touches the block, and are zero where that window does not reach. The
    windows are centered and the bins run longest first, so those bins are a
    prefix of the direct bins. Blocks are built one at a time: a dense
    span-by-bins matrix would be a 16 MB transient at the reference grid.
    """
    lengths = config.window_lengths(rate)
    n_direct = int(np.count_nonzero(lengths < band_min_window))
    first = config.n_bins - n_direct
    if not n_direct:
        return _DirectPlan(first, 0, ())
    hop = config.hop
    lengths = lengths[first:]
    freqs = config.center_freqs[first:]
    starts = -(lengths // 2)
    base = int(starts[0])
    blocks = []
    for lo in range(base, base + int(lengths[0]), hop):
        n_cols = np.count_nonzero((starts < lo + hop) & (starts + lengths > lo))
        win_len = lengths[:n_cols]
        # n is the sample index within each bin's window. The arithmetic is
        # np.hanning's and the phase's above, so every value inside a window
        # equals np.hanning(N_k)[n] / N_k times its cos or sin bit for bit.
        n = np.arange(lo, lo + hop)[:, None] - starts[:n_cols]
        window = (0.5 + 0.5 * np.cos(np.pi * (2 * n + 1 - win_len)
                                     / (win_len - 1))) / win_len
        window = np.where((n >= 0) & (n < win_len), window, 0.0)
        phase = (2.0 * np.pi * ((n - (win_len - 1) / 2.0) * freqs[:n_cols])
                 / rate)
        blocks.append(cached_array(np.stack(
            [window * np.cos(phase), window * np.sin(phase)],
            axis=2).reshape(hop, 2 * n_cols)))
    return _DirectPlan(first, base, tuple(blocks))


def cqt_spectrogram(signal: AudioSignal, config: CqtConfig) -> CqtSpectrogram:
    """Compute the constant-Q magnitude spectrogram of ``signal``.

    Frame t, bin k holds the magnitude of the inner product between the
    signal centered at sample ``t * hop`` and a Hann-windowed complex
    exponential at ``f_k`` of length ``N_k = ceil(Q * rate / f_k)``,
    normalized by ``N_k``. Signal edges are zero padded. Requires the signal
    to be at least as long as the bin-0 window.

    Bins with ``N_k >= _BAND_MIN_WINDOW`` take the band form
    (:func:`_band_column`) from one FFT of the signal zero padded to
    ``L = M * hop``, M the next fast FFT length of the frame count that
    covers the padded signal. Shorter bins take the direct form: the signal,
    zero padded and cut into rows of ``hop`` samples, times the kernel blocks
    of :func:`_direct_plan`, one GEMM per block over ``_DIRECT_FRAMES``
    frames at a time. The plan is cached per grid, rate and crossover, so
    only the first signal of each pays for its kernels.
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

    plan = _direct_plan(config, rate, _BAND_MIN_WINDOW)
    hop = config.hop
    n_frames = (len(signal) - 1) // hop + 1
    freqs = config.center_freqs
    magnitudes = np.empty((n_frames, config.n_bins))

    if plan.blocks:
        # Row r holds the hop samples from r * hop + base, so frame t's
        # windows lie in rows t .. t + n_blocks - 1 and block b meets row t + b.
        n_blocks = len(plan.blocks)
        rows = np.zeros((n_frames + n_blocks, hop))
        rows.reshape(-1)[-plan.base:-plan.base + len(signal)] = signal.samples
        for t0 in range(0, n_frames, _DIRECT_FRAMES):
            t1 = min(t0 + _DIRECT_FRAMES, n_frames)
            sums = np.zeros((t1 - t0, 2 * (config.n_bins - plan.first)))
            for b, block in enumerate(plan.blocks):
                sums[:, :block.shape[1]] += rows[t0 + b:t1 + b] @ block
            np.hypot(sums[:, 0::2], sums[:, 1::2],
                     out=magnitudes[t0:t1, plan.first:])

    band = lengths >= _BAND_MIN_WINDOW
    if band.any():
        # L covers the signal padded by half the longest window and 2 samples
        # each side, so no window wraps round onto the signal.
        padded_len = len(signal) + 2 * (longest // 2 + 2)
        n_fold = scipy.fft.next_fast_len(-(-padded_len // hop))
        spectrum = scipy.fft.fft(signal.samples, n_fold * hop)
        for k in np.flatnonzero(band):
            magnitudes[:, k] = _band_column(spectrum, n_fold, int(lengths[k]),
                                            freqs[k] / rate, n_frames)

    return CqtSpectrogram(
        magnitudes=magnitudes,
        center_freqs=freqs,
        frame_times=np.arange(n_frames) * hop / rate,
    )
