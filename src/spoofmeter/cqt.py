"""Constant-Q magnitude spectrogram.

Geometrically spaced bins, each analysed with a Hann-windowed complex
exponential whose length keeps the ratio of center frequency to bandwidth
constant. Each bin takes the cheaper of two forms of the same inner
products, chosen from its window length N_k alone:

- Direct form, for short windows: one matrix-vector product of a zero-copy
  strided view (every frame's window, read in place from the padded signal)
  with the bin's cosine and sine kernels. It costs O(n_frames * N_k).
- Band form, for long windows, as in the nonstationary-Gabor CQT (Velasco et
  al., 2011) with kernel spectra as in Brown & Puckette (1992): one FFT of
  the whole signal is shared by all bins; each bin evaluates its kernel's
  DFT in closed form on a band of O(L / N_k) DFT bins around f_k, folds it
  onto the frame grid and takes one short inverse FFT. Over the whole
  spectrum it is exact; the band cut drops only the kernel's far sidelobes.

At the reference grid (96 bins per octave over 9 octaves, 8.9 s at 16 kHz)
the direct form alone took 36-40 s and the mixture takes about 1 s. The
direct form stays for short windows because there the band, ±80 main-lobe
spacings, spans thousands of DFT bins and costs more than the window itself.
Bins are not batched: the unrounded lengths of adjacent bins differ by
``rate / f_(k+1)``, more than 2 samples below Nyquist, so no two bins ever
share a window length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioSignal
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
# grows as L / N_k and the direct form's as n_frames * N_k. At hop 160 and
# half-width 80 on a 2-vCPU Xeon they met near 2k samples (band 3.2 ms
# against direct 4.4 ms at 1857, 6.8 ms against 2.2 ms at 1104), and the
# 8.9 s reference-grid CQT took 0.98-1.2 s at crossovers of 2000 to 4000.
# 3000 keeps the shortest band-form bins, where the cut errs most, direct.
_BAND_MIN_WINDOW = 3000


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
    covers the padded signal; shorter bins take the direct form.
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
    freqs = config.center_freqs

    pad = longest // 2 + 2
    padded = np.pad(signal.samples, pad)
    magnitudes = np.empty((n_frames, config.n_bins))

    band = lengths >= _BAND_MIN_WINDOW
    if band.any():
        # L covers the padded signal, so no window wraps round onto the signal.
        n_fold = scipy.fft.next_fast_len(-(-len(padded) // hop))
        spectrum = scipy.fft.fft(signal.samples, n_fold * hop)
        for k in np.flatnonzero(band):
            magnitudes[:, k] = _band_column(spectrum, n_fold, int(lengths[k]),
                                            freqs[k] / rate, n_frames)

    for k in np.flatnonzero(~band):
        win_len = lengths[k]
        n = np.arange(win_len) - (win_len - 1) / 2.0
        window = np.hanning(win_len) / win_len
        phase = 2.0 * np.pi * (n * freqs[k]) / rate
        start = pad - win_len // 2
        frames = sliding_window_view(padded, win_len)[start::hop][:n_frames]
        magnitudes[:, k] = np.hypot(frames @ (window * np.cos(phase)),
                                    frames @ (window * np.sin(phase)))

    return CqtSpectrogram(
        magnitudes=magnitudes,
        center_freqs=freqs,
        frame_times=np.arange(n_frames) * hop / rate,
    )
