"""Shared fixtures-in-code for the test suite: WAV writing, synthetic signals,
and reference formulas kept as oracles."""

import math
import wave

import numpy as np
import scipy.fft
from scipy.fft import dct
from scipy.interpolate import CubicSpline
from scipy.signal import lfilter
from scipy.special import logsumexp

import spoofmeter
from spoofmeter import (AudioSignal, CqccConfig, CqtConfig, DetectorModel,
                        FeatureConfig, extract_features, read_wav, train_gmm)
from spoofmeter import cqt
from spoofmeter.errors import DegenerateDataError, TooFewFramesError

RATE = 16000

# Compact analysis grid for fast tests: 4 octaves, 12 bins each, bin-0 window
# of 539 samples at 16 kHz.
SMALL_CQT = CqtConfig(bins_per_octave=12, f_min=500.0, f_max=8000.0, hop=160)

# Mid-size grid used by the end-to-end synthetic experiments: 6 octaves at 24
# bins each, bin-0 window of 4386 samples (0.28 s) at 16 kHz.
MEDIUM_CQT = CqtConfig(bins_per_octave=24, f_min=125.0, f_max=8000.0, hop=160)


# Valid ``.npy`` arrays that are not usable feature-cache entries, by the
# reason ``read_feature_cache`` gives for refusing them.
NOT_FEATURES = {
    "float32": (np.ones((4, 3), dtype=np.float32), "not a float64 array"),
    "int64": (np.ones((4, 3), dtype=np.int64), "not a float64 array"),
    "1-d": (np.ones(12), "2-D"),
    "nan": (np.array([[0.5, np.nan, 1.0]] * 4), "finite"),
    "inf": (np.array([[0.5, -np.inf, 1.0]] * 4), "finite"),
}


def save_npy(path, array):
    """``np.save`` to exactly ``path``, which need not end in ``.npy``."""
    with open(path, "wb") as f:
        np.save(f, array, allow_pickle=False)


def small_feature_config(**cqcc_kwargs) -> FeatureConfig:
    return FeatureConfig(sample_rate=RATE, cqt=SMALL_CQT,
                         cqcc=CqccConfig(**cqcc_kwargs))


def write_pcm16_wav(path, samples, rate=RATE):
    """Write float samples in [-1, 1) as a 16-bit mono PCM WAV."""
    ints = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(ints.astype("<i2").tobytes())


def tone(freq, rate=RATE, n_samples=RATE, amplitude=1.0, phase=0.0):
    t = np.arange(n_samples) / rate
    return AudioSignal(amplitude * np.sin(2 * np.pi * freq * t + phase), rate)


def noise_signal(rng, n_samples, rate=RATE, amplitude=0.3):
    x = rng.standard_normal(n_samples)
    x *= amplitude / np.max(np.abs(x))
    return AudioSignal(x, rate)


def resonant_noise(rng, n_samples, rate=RATE, n_resonators=3,
                   freq_range=(300.0, 3500.0), noise_floor_db=-38.0,
                   peak=0.25):
    """Noise-excited bank of random second-order resonators.

    A white-noise floor is mixed in (relative to the shaped signal's RMS) and
    the result is normalized to a randomized peak level. Stands in for a
    'natural' class with per-utterance spectral variability.
    """
    x = rng.standard_normal(n_samples)
    shaped = np.zeros(n_samples)
    for _ in range(n_resonators):
        freq = rng.uniform(*freq_range)
        r = rng.uniform(0.96, 0.995)
        theta = 2 * np.pi * freq / rate
        shaped += lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], x)
    shaped /= np.sqrt(np.mean(shaped ** 2))
    floor = 10.0 ** (noise_floor_db / 20.0)
    shaped += floor * rng.standard_normal(n_samples)
    level = peak * rng.uniform(0.5, 1.0)
    shaped *= level / np.max(np.abs(shaped))
    return AudioSignal(shaped, rate)


def burst_resonant_noise(rng, n_samples, rate=RATE):
    """Utterance-like test signal: noise-excited resonators under a bursty envelope.

    Three moderate resonators shape the spectrum and one high-Q resonator adds
    quasi-tonal ringing. The envelope is a train of sharp-attack exponential
    decays over a per-utterance noise floor, so each utterance sweeps a wide
    instantaneous-level range; level-dependent quantization artifacts then
    show up in the log-energy trajectories rather than only in static shape.
    """
    x = rng.standard_normal(n_samples)
    shaped = np.zeros(n_samples)
    for _ in range(3):
        freq = rng.uniform(300.0, 3500.0)
        r = rng.uniform(0.96, 0.995)
        theta = 2 * np.pi * freq / rate
        shaped += lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], x)
    freq = rng.uniform(500.0, 2000.0)
    r = rng.uniform(0.9993, 0.9999)
    theta = 2 * np.pi * freq / rate
    ring = lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], x)
    shaped /= np.sqrt(np.mean(shaped ** 2))
    ring /= np.sqrt(np.mean(ring ** 2))
    shaped += 0.3 * ring

    env = np.full(n_samples, 10.0 ** (rng.uniform(-80.0, -48.0) / 20.0))
    t = np.arange(n_samples)
    for _ in range(int(rng.integers(4, 9))):
        start = int(rng.integers(0, n_samples - 1600))
        tau = rng.uniform(0.04, 0.12) * rate
        amp = rng.uniform(0.3, 1.0)
        attack = int(0.01 * rate)
        burst = np.zeros(n_samples)
        seg = t[start:] - start
        burst[start:] = amp * np.exp(-(seg - attack) / tau)
        burst[start:start + attack] = amp * np.linspace(0, 1, attack)
        env = np.maximum(env, burst)

    y = shaped * env
    level = 0.25 * rng.uniform(0.5, 1.0)
    y *= level / np.max(np.abs(y))
    return AudioSignal(y, rate)


def write_manifest(path, rows):
    """rows: iterable of (utt_id, wav_path, label, system_id)."""
    lines = ["utt_id\tpath\tlabel\tsystem_id"]
    lines += [f"{u}\t{p}\t{lab}\t{sys}" for u, p, lab, sys in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_wav_corpus(directory, entries):
    """Write (utt_id, label, system_id, AudioSignal) tuples as WAVs + manifest.

    Returns the manifest path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for utt_id, label, system_id, signal in entries:
        wav = directory / f"{utt_id}.wav"
        write_pcm16_wav(wav, signal.samples, rate=signal.sample_rate)
        rows.append((utt_id, wav.name, label, system_id))
    manifest = directory / "manifest.tsv"
    write_manifest(manifest, rows)
    return manifest


def bruteforce_eer_percent(bona, spoof):
    """O(n^2) EER oracle: direct counting at every candidate threshold.

    Candidates are all scores, the midpoints of adjacent sorted scores, and
    one extreme beyond each end; the crossing is located by a plain walk and
    linear interpolation of the two rates. Shares no code with the
    implementation under test.
    """
    bona = np.asarray(bona, dtype=float)
    spoof = np.asarray(spoof, dtype=float)
    scores = np.unique(np.concatenate([bona, spoof]))
    mids = (scores[:-1] + scores[1:]) / 2.0
    candidates = np.sort(np.concatenate(
        [[scores[0] - 1.0], scores, mids, [scores[-1] + 1.0]]))

    pairs = []
    for t in candidates:
        far = np.count_nonzero(spoof >= t) / spoof.size
        mr = np.count_nonzero(bona < t) / bona.size
        pairs.append((far, mr))

    prev_far, prev_mr = pairs[0]
    for far, mr in pairs:
        diff = far - mr
        if diff == 0.0:
            return 100.0 * far
        if diff < 0.0:
            prev_diff = prev_far - prev_mr
            lam = prev_diff / (prev_diff - diff)
            return 100.0 * (prev_far + lam * (far - prev_far))
        prev_far, prev_mr = far, mr
    raise AssertionError("no FAR/MR crossing found")


def mulaw_distort(signal: AudioSignal, bits: int, mu: float = 255.0) -> AudioSignal:
    """mu-law compand, uniformly quantize to 2**bits levels, expand back."""
    x = signal.samples
    companded = np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu)
    levels = 2 ** bits
    q = np.clip(np.floor((companded + 1.0) / 2.0 * levels), 0, levels - 1)
    dequant = (q + 0.5) / levels * 2.0 - 1.0
    expanded = np.sign(dequant) * ((1.0 + mu) ** np.abs(dequant) - 1.0) / mu
    return AudioSignal(expanded, signal.sample_rate)


def reference_dct_truncate(uniform_log_spec, num_ceps, include_zeroth):
    """The full orthonormal DCT-II of every frame, then the kept columns: the
    composition ``features.dct_truncate`` used before its cached basis. An
    oracle for the basis product, not a second code path."""
    lo = 0 if include_zeroth else 1
    return dct(np.asarray(uniform_log_spec, dtype=np.float64), type=2,
               norm="ortho", axis=1)[:, lo:num_ceps + 1]


def reference_uniform_resample(log_spec, center_freqs, grid):
    """Each frame's not-a-knot ``CubicSpline`` through the knots, evaluated on
    ``grid``: what ``features.uniform_resample`` computed before its Hermite
    form. An oracle for the Hermite form, not a second code path."""
    return CubicSpline(center_freqs, log_spec, axis=1)(grid)


def reference_band_column(spectrum, n_fold, win_len, freq_per_sample,
                           n_frames):
    """One band-form bin's magnitudes with three ``cqt._dirichlet`` calls over
    its band: the per-bin form ``cqt_spectrogram`` used before its phasor
    runs, with the same band, fold and scaling. An oracle for the phasor
    kernel, not a second code path."""
    size = len(spectrum)
    width = min(2 * math.ceil(cqt._BAND_HALF_WIDTH * size / win_len) + 1, size)
    q = round(freq_per_sample * size) - width // 2 + np.arange(width)
    u = q / size - freq_per_sample
    step = 1.0 / (win_len - 1)
    kernel = (0.5 * cqt._dirichlet(u, win_len)
              + 0.25 * (cqt._dirichlet(u + step, win_len)
                        + cqt._dirichlet(u - step, win_len))) / win_len
    band = spectrum[q % size] * kernel
    if win_len % 2 == 0:
        band *= np.exp(-1j * np.pi * q / size)
    fold = q % n_fold
    folded = (np.bincount(fold, band.real, n_fold)
              + 1j * np.bincount(fold, band.imag, n_fold))
    return np.abs(scipy.fft.ifft(folded)[:n_frames]) * (n_fold / size)


def reference_joint_log_likelihoods(frames, weights, means, variances):
    """(n, C) log weight plus component log density, by the per-component
    formula (``const − quad + log w``) that scored models before the fused
    GMM kernel. An oracle for the fused form, not a second code path."""
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * np.log(2.0 * np.pi)
                    + np.sum(np.log(variances), axis=1))
    mean_term = 0.5 * np.sum(means ** 2 * inv, axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return (const - (0.5 * (frames ** 2) @ inv.T - frames @ (means * inv).T
                     + mean_term)) + log_w


def reference_frame_log_likelihoods(gmm, frames):
    return logsumexp(reference_joint_log_likelihoods(
        frames, gmm.weights, gmm.means, gmm.variances), axis=1)


def reference_accumulate(frames, weights, means, variances):
    """E-step of the reference formula: (average LL, counts, Σx, Σx²)."""
    joint = reference_joint_log_likelihoods(frames, weights, means, variances)
    frame_ll = logsumexp(joint, axis=1)
    resp = np.exp(joint - frame_ll[:, None])
    return (frame_ll.sum() / frames.shape[0], resp.sum(axis=0),
            resp.T @ frames, resp.T @ (frames ** 2))


def reference_detector(nat, artif, feature_config, gmm_config):
    """The detector at ``gmm_config``'s count, trained class by class.

    Per class, every file's features are stacked in manifest order and
    ``train_gmm`` is run once; an EM error is raised again as its own type,
    naming manifest and class. The composition that trained detectors
    before ``train`` and ``grid`` shared the detector parts, kept as an
    oracle for ``detector.train_detector`` and ``grid``'s composition. No
    feature cache.
    """
    config = feature_config.pinned()
    classes = ((nat, "natural-speech"), (artif, "artificial-speech"))
    frames = [np.vstack([extract_features(config, read_wav(e.path)).frames
                         for e in manifest]) for manifest, _ in classes]
    gmms = []
    for (manifest, name), pooled in zip(classes, frames):
        try:
            gmms.append(train_gmm(pooled, gmm_config))
        except (TooFewFramesError, DegenerateDataError) as exc:
            where = f"{manifest.source_path}: " if manifest.source_path else ""
            raise type(exc)(f"{where}{name} model: {exc}") from exc
    metadata = {
        "tool": f"spoofmeter {spoofmeter.__version__}",
        "seed": str(gmm_config.seed),
        "nat_files": str(len(nat)),
        "artif_files": str(len(artif)),
        "nat_frames": str(frames[0].shape[0]),
        "artif_frames": str(frames[1].shape[0]),
    }
    if nat.source_path:
        metadata["nat_manifest"] = nat.source_path
    if artif.source_path:
        metadata["artif_manifest"] = artif.source_path
    return DetectorModel(*gmms, config, metadata)
