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
  DFT in closed form on a band of O(L / N_k) DFT bins around f_k and folds
  it onto the frame grid, and each block of bins takes one inverse FFT.
  The closed form's sines come from phasor runs (:func:`_phasor_run`), not
  from ``np.sin`` over the band; the few points near a zero of its
  denominators take exact sines. Over the whole spectrum the band form is
  exact; the band cut drops only the kernel's far sidelobes.

At the reference grid (96 bins per octave over 9 octaves, 8.9 s at 16 kHz)
a per-bin direct form alone took 36-40 s. On a 2-vCPU Xeon the mixture
takes 0.11-0.13 s, of which the band form is 0.08-0.11 s (0.25-0.34 s with
six sines per band point). The direct form stays for short windows because
there the band, ±80 main-lobe spacings, spans thousands of DFT bins and
costs more than the window itself. The blocks batch direct bins by
zero-padding each kernel to the blocks its window touches, not by shared
window lengths: the unrounded lengths of adjacent bins differ by
``rate / f_(k+1)``, more than 2 samples below Nyquist, so no two bins ever
share one. As in Brown & Puckette (1992),
the kernels are computed once per analysis grid and sample rate and cached,
not once per signal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

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
# grows as L / N_k and the direct form's as n_frames * N_k. 3000 keeps the
# shortest band-form bins, where the cut errs most, direct. With the blocked
# direct form, on a 2-vCPU Xeon at hop 160, the 8.9 s reference-grid CQT
# took 0.32-0.42 s at 3000 (a 6.9 MB plan), 0.25-0.36 s at 4000 (9.2 MB) and
# 0.28-0.36 s at 6000 (13.8 MB). It stays at 3000: at 4000 the benchmark's
# paper-frontend peak RSS rose 6.9 % over the per-bin direct form's (5.3 %
# at 3000) for 4-9 % more speed, and 6000 would leave MEDIUM_CQT in the
# tests, whose bin-0 window is 4369 samples, without band-form bins.
_BAND_MIN_WINDOW = 3000

# Below this N |sin(pi (u + a))|, a band point's kernel takes _dirichlet at
# the exact u, where the phasor form could err by 1e-15 / 1e-3 = 1e-12 of
# its peak (see _band_kernel). That is 38-64 of the 2.06 M band points of an
# 8.9-12 s reference-grid CQT, and keeps its magnitudes within 6e-14 of each
# bin's maximum of the per-bin sines' (3.4e-13 at 1e-4; 2.7e-12 at 0).
_NEAR_ZERO = 1e-3

# Most bins a grid may have, 152 times the default 864, checked from the
# closed-form count so that a mistyped grid fails before any per-bin array
# is built: 1e8 bins per octave (9e8 bins, 7.2 GB per float64 array) was
# killed for memory instead. At the cap a 9 s spectrogram is already 0.9 GB.
_MAX_BINS = 2 ** 17

# Longest window a grid may have, in samples: 37 h at 16 kHz, checked from
# the closed form before any length is cast to an integer, as one beyond
# int64 (f_min = 1e-300 Hz gives 2.2e306 samples) casts to a negative length.
_MAX_WINDOW = 2 ** 31

# Band-form bins folded and inverse transformed per scipy.fft.ifft call.
_BAND_BLOCK = 64

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
        if 2.0 ** (1.0 / self.bins_per_octave) == 1.0:  # Q = 1 / 0
            raise ConfigError(f"bins_per_octave {self.bins_per_octave} "
                              f"leaves the bins no bandwidth")
        if self.hop < 1:
            raise ConfigError("hop must be >= 1")
        if not (0.0 < self.f_min < self.f_max):
            raise ConfigError(
                f"need 0 < f_min < f_max, got f_min={self.f_min}, f_max={self.f_max}")
        if not math.isfinite(self.f_max / self.f_min):
            raise ConfigError(
                f"f_max / f_min = {self.f_max} / {self.f_min} overflows")
        if self.n_bins > _MAX_BINS:
            raise ConfigError(f"grid of {self.n_bins} bins exceeds the "
                              f"limit of {_MAX_BINS}")

    def check_rate(self, sample_rate) -> None:
        """:class:`ConfigError` unless the grid can run at ``sample_rate``:
        ``f_max`` within Nyquist and the longest window, at ``f_min``, of at
        most ``_MAX_WINDOW`` samples."""
        if self.f_max > sample_rate / 2.0 + 1e-9:
            raise ConfigError(f"cqt f_max={self.f_max} exceeds Nyquist for "
                              f"{sample_rate} Hz")
        longest = self.q_factor * sample_rate / self.f_min
        if not longest <= _MAX_WINDOW:
            raise ConfigError(f"longest window of {longest:.3g} samples at "
                              f"{sample_rate} Hz exceeds the limit of "
                              f"{_MAX_WINDOW}")

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


def _phasor_run(n: int, size: int, width: int, scale: complex = 1.0) -> np.ndarray:
    """``scale * exp(1j pi n j / size)`` for ``j < width``; n, size integers.

    The outer product of two tables of about ``sqrt(width)`` phasors, at
    ``j = a * cols + b``: about ``2 sqrt(width)`` complex exponentials in
    place of ``width``. Each table angle is reduced modulo 2 pi in integers,
    ``(n j) mod 2 size``, so the run is within about 1e-15 of exact however
    large ``n j / size`` grows, where ``np.exp`` of the unreduced angle errs
    in proportion to it.
    """
    cols = math.isqrt(width - 1) + 1
    rows = -(-width // cols)
    j = np.arange(cols + rows)
    j[cols:] = cols * j[:rows]
    table = np.exp(1j * np.pi * (n * j % (2 * size)) / size)
    return np.multiply.outer(table[cols:] * scale, table[:cols]).reshape(-1)[:width]


def _band_kernel(win_len: int, freq_per_sample: float, q_c: int, size: int,
                 shift_re: np.ndarray, shift_im: np.ndarray) -> np.ndarray:
    """One bin's kernel spectrum, without its phase, on its band: the DFT
    bins ``q = q_c + m`` for ``m >= -(width // 2)``, ``width = len(shift_re)``.

    Up to the phase ``exp(1j pi q (N - 1) / L)``, the DFT of the conjugate
    kernel (same magnitudes) at q is ``sum_a c_a D_N(u + a) / N`` with
    ``u = q / L - f_k / rate``, ``D_N(x) = sin(pi N x) / sin(pi x)`` and
    ``(a, c_a)`` in ``(0, 1/2)``, ``(+-1 / (N - 1), 1/4)``:
    ``np.hanning(N) / N`` is a sum of three complex exponentials. N >= 4
    keeps every ``u + a`` within (-1, 1).

    No sine is taken over the band. ``shift_re`` and ``shift_im`` hold
    ``exp(1j pi m / L)`` over it, so ``sin(pi (u + a))`` is
    ``Im(exp(1j pi (u_c + a)) exp(1j pi m / L))`` with ``u_c`` the u of
    ``q_c``. As ``N / (N - 1) = 1 + 1 / (N - 1)``, the three numerators are
    real combinations of ``exp(1j pi N u)``, one :func:`_phasor_run`.

    Near a zero of a denominator the ratio loses accuracy: the numerator
    carries an absolute error of about 1e-15 that the denominator does not
    share, so the kernel errs by about ``1e-15 / (N |sin(pi (u + a))|)`` of
    its peak. Points with ``N |sin(pi (u + a))| < _NEAR_ZERO`` therefore
    take :func:`_dirichlet` at the exact u. Exact zeros, which the products
    miss by about 1e-17, are common: a band point sits on ``u = 0`` whenever
    ``f_k L / rate`` is an integer.
    """
    width = len(shift_re)
    centre = width // 2
    u_c = q_c / size - freq_per_sample
    step = 1.0 / (win_len - 1)
    # sin(pi N (u +- step)) = -Im(exp(1j pi N u) exp(+-1j pi step)).
    phase = win_len * u_c - (win_len * centre % (2 * size)) / size
    p = _phasor_run(win_len, size, width, np.exp(1j * np.pi * phase))
    even = p.imag * -math.cos(math.pi * step)
    odd = p.real * -math.sin(math.pi * step)

    def denominator(a, scale):  # scale * sin(pi (u + a))
        angle = math.pi * (u_c + a)
        return ((scale * math.sin(angle)) * shift_re
                + (scale * math.cos(angle)) * shift_im)

    # Denominators scaled by N / c_a, so that the kernel is a plain sum.
    with np.errstate(divide="ignore", invalid="ignore"):  # exact zeros
        kernel = p.imag / denominator(0.0, 2.0 * win_len)
        plus = even + odd
        plus /= denominator(step, 4.0 * win_len)
        kernel += plus
        even -= odd
        even /= denominator(-step, 4.0 * win_len)
        kernel += even

    # |sin(pi x)| >= 2 |x| for |x| <= 1/2, so only points within
    # _NEAR_ZERO * L / (2 N) DFT bins of a zero can fall below the threshold.
    radius = _NEAR_ZERO * size / (2 * win_len)
    near = []
    for a in (0.0, step, -step):
        zero = centre - (u_c + a) * size  # where sin(pi (u + a)) = 0
        near += range(max(math.ceil(zero - radius), 0),
                      min(math.floor(zero + radius) + 1, width))
    if near:
        u = (q_c - centre + np.array(near)) / size - freq_per_sample
        kernel[near] = (0.5 * _dirichlet(u, win_len)
                        + 0.25 * (_dirichlet(u + step, win_len)
                                  + _dirichlet(u - step, win_len))) / win_len
    return kernel


def _band_form(spectrum: np.ndarray, n_fold: int, lengths: np.ndarray,
               freqs_per_sample: np.ndarray, out: np.ndarray) -> None:
    """Band-form magnitudes of the bins of window ``lengths`` into the
    columns of ``out``, from ``spectrum``, the length-L FFT of the signal.

    Each bin's kernel (:func:`_band_kernel`) is evaluated on the
    ``2 * ceil(_BAND_HALF_WIDTH * L / N) + 1`` DFT bins q nearest
    ``f_k L / rate`` (at most L), a slice of the spectrum unless it wraps.
    Frame t's window starts at ``t * hop - N // 2``, so with the kernel's
    phase only a half-sample ramp ``exp(-1j pi q / L)`` is left, for even N.
    Up to a constant phase, which the magnitude drops, it is
    ``conj(exp(1j pi m / L))`` at ``q = q_c + m``, from the run that every
    bin's kernel shares. As ``L = M * hop``, frame t is
    ``(1/L) sum_q Y[q] G[q] exp(2j pi q t / M)``: the band folded modulo M
    (padded to whole rows of M and summed), then a length-M inverse FFT,
    ``_BAND_BLOCK`` bins per call, times M / L.
    """
    size = len(spectrum)
    widths = np.minimum(2 * np.ceil(_BAND_HALF_WIDTH * size / lengths) + 1,
                        size).astype(int)
    # exp(1j pi m / L) for |m| <= half, shared by every band bin.
    half = int(widths.max()) // 2
    shift = _phasor_run(1, size, half + 1)
    shift = np.concatenate([shift[:0:-1].conj(), shift])
    shift_re, shift_im, ramp = shift.real.copy(), shift.imag.copy(), shift.conj()
    n_frames, n_bins = out.shape
    for k0 in range(0, n_bins, _BAND_BLOCK):
        folded = np.zeros((min(_BAND_BLOCK, n_bins - k0), n_fold), dtype=complex)
        for i, row in enumerate(folded):
            win_len, width = int(lengths[k0 + i]), int(widths[k0 + i])
            centre = width // 2
            q_c = round(freqs_per_sample[k0 + i] * size)
            band = slice(half - centre, half - centre + width)
            kernel = _band_kernel(win_len, freqs_per_sample[k0 + i], q_c, size,
                                  shift_re[band], shift_im[band])
            q0 = q_c - centre
            start = q0 % n_fold
            padded = np.zeros(-(-(start + width) // n_fold) * n_fold,
                              dtype=complex)
            spread = padded[start:start + width]
            if 0 <= q0 and q0 + width <= size:
                np.multiply(spectrum[q0:q0 + width], kernel, out=spread)
            else:  # only a band of (nearly) the whole spectrum wraps
                np.multiply(np.take(spectrum, range(q0, q0 + width), mode="wrap"),
                            kernel, out=spread)
            if win_len % 2 == 0:
                spread *= ramp[band]
            np.sum(padded.reshape(-1, n_fold), axis=0, out=row)
        rows = scipy.fft.ifft(folded, axis=1)[:, :n_frames]
        out[:, k0:k0 + len(folded)] = np.abs(rows).T * (n_fold / size)


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
        block = np.stack([window * np.cos(phase), window * np.sin(phase)],
                         axis=2).reshape(hop, 2 * n_cols)
        block.setflags(write=False)
        blocks.append(block)
    return _DirectPlan(first, base, tuple(blocks))


def cqt_spectrogram(signal: AudioSignal, config: CqtConfig) -> CqtSpectrogram:
    """Compute the constant-Q magnitude spectrogram of ``signal``.

    Frame t, bin k holds the magnitude of the inner product between the
    signal centered at sample ``t * hop`` and a Hann-windowed complex
    exponential at ``f_k`` of length ``N_k = ceil(Q * rate / f_k)``,
    normalized by ``N_k``. Signal edges are zero padded. Requires the signal
    to be at least as long as the bin-0 window.

    Bins with ``N_k >= _BAND_MIN_WINDOW`` take the band form
    (:func:`_band_form`) from one FFT of the signal zero padded to
    ``L = M * hop``, M the next fast FFT length of the frame count that
    covers the padded signal. Shorter bins take the direct form: the signal,
    zero padded and cut into rows of ``hop`` samples, times the kernel blocks
    of :func:`_direct_plan`, one GEMM per block over ``_DIRECT_FRAMES``
    frames at a time. The plan is cached per grid, rate and crossover, so
    only the first signal of each pays for its kernels.
    """
    rate = signal.sample_rate
    config.check_rate(rate)

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

    # Window lengths fall with k, so the band bins are 0 .. plan.first - 1.
    if plan.first:
        # L covers the signal padded by half the longest window and 2 samples
        # each side, so no window wraps round onto the signal.
        padded_len = len(signal) + 2 * (longest // 2 + 2)
        n_fold = scipy.fft.next_fast_len(-(-padded_len // hop))
        spectrum = scipy.fft.fft(signal.samples, n_fold * hop)
        _band_form(spectrum, n_fold, lengths[:plan.first],
                   freqs[:plan.first] / rate, magnitudes[:, :plan.first])

    return CqtSpectrogram(
        magnitudes=magnitudes,
        center_freqs=freqs,
        frame_times=np.arange(n_frames) * hop / rate,
    )
