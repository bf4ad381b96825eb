"""Deterministic synthetic corpus for the benchmark.

Kept inside the benchmark on purpose: a later edit to the test helpers must
not silently change the benchmark's inputs. Natural speech is stood in for by
noise-excited resonator banks under a bursty envelope; each artificial
("spoof") system is the same kind of signal passed through mu-law
quantisation at its own bit depth. Everything is a function of the seed.

The program under test only ever sees the WAV files and manifests written
here.
"""

from __future__ import annotations

import hashlib
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

MANIFEST_HEADER = "utt_id\tpath\tlabel\tsystem_id"


@dataclass(frozen=True)
class Utterance:
    """One corpus row: ``system`` is ``-`` for bona fide, else ``mu<bits>``."""

    utt_id: str
    system: str
    seconds: float
    rate: int

    @property
    def label(self) -> str:
        return "bonafide" if self.system == "-" else "spoof"

    @property
    def n_samples(self) -> int:
        return int(round(self.seconds * self.rate))


def _resonator(x, freq, r, rate):
    theta = 2.0 * np.pi * freq / rate
    return lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def burst_resonant_noise(rng, n_samples, rate):
    """Noise-excited resonators under a train of sharp-attack decays.

    Three moderate resonators shape the spectrum and one high-Q resonator
    adds quasi-tonal ringing. The envelope sweeps a wide level range over a
    per-utterance noise floor, so level-dependent quantisation artifacts show
    in the log-energy trajectories, not only in the static spectral shape.
    """
    x = rng.standard_normal(n_samples)
    shaped = np.zeros(n_samples)
    for _ in range(3):
        shaped += _resonator(x, rng.uniform(300.0, 3500.0),
                             rng.uniform(0.96, 0.995), rate)
    ring = _resonator(x, rng.uniform(500.0, 2000.0),
                      rng.uniform(0.9993, 0.9999), rate)
    shaped /= np.sqrt(np.mean(shaped ** 2))
    ring /= np.sqrt(np.mean(ring ** 2))
    shaped += 0.3 * ring

    env = np.full(n_samples, 10.0 ** (rng.uniform(-80.0, -48.0) / 20.0))
    t = np.arange(n_samples)
    attack = max(1, int(0.01 * rate))
    for _ in range(int(rng.integers(4, 9)) * max(1, n_samples // (2 * rate))):
        start = int(rng.integers(0, max(1, n_samples - attack)))
        tau = rng.uniform(0.04, 0.12) * rate
        amp = rng.uniform(0.3, 1.0)
        burst = np.zeros(n_samples)
        seg = t[start:] - start
        burst[start:] = amp * np.exp(-(seg - attack) / tau)
        burst[start:start + attack] = amp * np.linspace(0.0, 1.0, attack)[:n_samples - start]
        env = np.maximum(env, burst)

    y = shaped * env
    return y * (0.25 * rng.uniform(0.5, 1.0) / np.max(np.abs(y)))


def mulaw_distort(samples, bits, mu=255.0):
    """mu-law compand, quantise uniformly to ``2**bits`` levels, expand back."""
    companded = np.sign(samples) * np.log1p(mu * np.abs(samples)) / np.log1p(mu)
    levels = 2 ** bits
    q = np.clip(np.floor((companded + 1.0) / 2.0 * levels), 0, levels - 1)
    dequant = (q + 0.5) / levels * 2.0 - 1.0
    return np.sign(dequant) * ((1.0 + mu) ** np.abs(dequant) - 1.0) / mu


def synthesize(rng, utt: Utterance) -> np.ndarray:
    samples = burst_resonant_noise(rng, utt.n_samples, utt.rate)
    if utt.system != "-":
        samples = mulaw_distort(samples, int(utt.system.removeprefix("mu")))
    return samples


def write_pcm16_wav(path, samples, rate):
    ints = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(ints.astype("<i2").tobytes())


def write_corpus(directory: Path, seed: int, parts: dict) -> dict:
    """Write each named part (a list of utterances) as WAVs plus a manifest.

    Returns ``{part: manifest_path}``. Parts are generated in sorted order
    from one seeded stream, so the same seed always yields the same bytes.
    Manifests list paths relative to their own directory.
    """
    rng = np.random.default_rng(seed)
    manifests = {}
    for name in sorted(parts):
        part_dir = directory / name
        part_dir.mkdir(parents=True, exist_ok=True)
        lines = [MANIFEST_HEADER]
        for utt in parts[name]:
            write_pcm16_wav(part_dir / f"{utt.utt_id}.wav",
                            synthesize(rng, utt), utt.rate)
            lines.append(f"{utt.utt_id}\t{utt.utt_id}.wav\t{utt.label}\t{utt.system}")
        manifest = part_dir / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifests[name] = manifest
    return manifests


def corpus_sha256(directory: Path) -> str:
    """Digest of every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
