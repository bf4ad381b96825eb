"""The benchmark's workloads: corpus spec, set-up, untraced and traced passes.

Each workload is a closed loop: one caller in one process, each pass waiting
for the previous one. An untraced pass calls the program the way a user
would (``extract_features``, ``cli.main(["grid", ...])``, ``score_batch``).
The traced pass re-composes the same pipeline from the package's public
functions with a span around every call; its outputs must equal the untraced
pass's bit for bit, which shows the per-layer split describes the same
program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from corpus import Utterance, write_corpus
from spoofmeter import (
    CqccConfig,
    CqtConfig,
    DetectorModel,
    ScoreRecord,
    ScoreSet,
    append_deltas,
    attack_averaged_eer,
    avg_log_likelihood,
    cmvn,
    cqt_spectrogram,
    dct_truncate,
    default_feature_config,
    extract_features,
    load_model,
    log_power,
    parse_manifest,
    read_feature_cache,
    read_wav,
    resample,
    save_model,
    score_batch,
    train_detector,
    train_gmm,
    uniform_resample,
    write_feature_cache,
)
from spoofmeter.cli import load_run_config, main as cli_main, parse_variant
from spoofmeter.detector import CACHE_ENV_VAR, FeatureConfig
from spoofmeter.errors import BatchScoringError, SpoofmeterError
from spoofmeter.gmm import GmmTrainConfig

# The tests' compact analysis grid: 12 bins/octave over 4 octaves, bin-0
# window of 539 samples at 16 kHz. Keeps CQT a small share where EM or
# scoring is the layer under study.
SMALL_CQT = {"bins_per_octave": 12, "f_min": 500.0, "f_max": 8000.0, "hop": 160}

# Every corpus mixes these rates so WAV decode and resampling stay on the path.
RATES = (8000, 16000, 22050, 44100)

# Two artificial systems: mu-law at 3 and 5 bits.
SYSTEMS = ("mu3", "mu5")


@dataclass(frozen=True)
class Spec:
    """Corpus and program settings of one workload at one size."""

    parts: dict
    cqt: dict | None = None        # None: default_feature_config() as is
    cqcc: dict = field(default_factory=dict)
    gmm: dict = field(default_factory=dict)
    variants: tuple = ()
    gaussians: tuple = ()

    def feature_config(self) -> FeatureConfig:
        if self.cqt is None:
            return default_feature_config()
        return FeatureConfig(16000, CqtConfig(**self.cqt), CqccConfig(**self.cqcc))

    def seconds(self) -> dict:
        """Duration of every utterance, by utt_id, as stored in its WAV."""
        return {u.utt_id: u.n_samples / u.rate
                for part in self.parts.values() for u in part}


def _two_class_parts(n_train, n_eval, seconds):
    nat = [Utterance(f"nat{i:03d}", "-", seconds, RATES[i % 4])
           for i in range(n_train)]
    artif = [Utterance(f"art{i:03d}", SYSTEMS[i % 2], seconds, RATES[i // 2 % 4])
             for i in range(n_train)]
    evals = [Utterance(f"evb{i:03d}", "-", seconds, RATES[i % 4])
             for i in range(n_eval)]
    for system in SYSTEMS:
        evals += [Utterance(f"ev{system}{i:03d}", system, seconds, RATES[(i + 1) % 4])
                  for i in range(n_eval)]
    return {"nat": tuple(nat), "artif": tuple(artif), "eval": tuple(evals)}


def make_spec(workload: str, smoke: bool = False) -> Spec:
    """Settings of ``workload``; ``smoke`` shrinks every size to seconds of work."""
    if workload == "paper-frontend":
        # One utterance longer than the default grid's 8.83 s bin-0 window, at
        # a non-16 kHz rate, and two of the paper corpus's typical ~3 s, which
        # the default grid rejects today (SignalTooShortError). They stay in
        # and count as failed operations. Smoke mode keeps that shape on the
        # small grid, whose bin-0 window is 539 samples.
        long_s, short_s = (0.5, 0.02) if smoke else (8.9, 3.0)
        return Spec(
            parts={"utts": (Utterance("long0", "-", long_s, 22050),
                            Utterance("short0", "-", short_s, 16000),
                            Utterance("short1", "-", short_s, 44100))},
            cqt=SMALL_CQT if smoke else None)
    if workload == "grid-em":
        return Spec(
            parts=_two_class_parts(4, 2, 0.5) if smoke else _two_class_parts(8, 12, 2.0),
            cqt=SMALL_CQT,
            variants=("stat+delta", "z+stat+delta+delta2"),
            gaussians=(2, 4) if smoke else (16, 256))
    if workload == "score-batch":
        # Scoring cost does not depend on EM convergence, so one iteration
        # per split stage is enough to build the 2048-component models.
        return Spec(
            parts=_two_class_parts(4, 2, 0.5) if smoke else _two_class_parts(30, 30, 1.5),
            cqt=SMALL_CQT,
            cqcc={"use_static": True, "use_delta": True, "use_delta2": False},
            gmm={"target_components": 8 if smoke else 2048,
                 "em_iters_per_stage": 1})
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, spec: Spec, directory: Path, seed: int) -> dict:
    """Write the corpus (and, for score-batch, train and save the model).

    Returns the paths the timed phase needs, as strings.
    """
    manifests = write_corpus(directory / "corpus", seed, spec.parts)
    paths = {name: str(path) for name, path in manifests.items()}
    if workload == "grid-em":
        config = directory / "run.json"
        config.write_text(json.dumps({"cqt": spec.cqt, "cqcc": spec.cqcc,
                                      "gmm": spec.gmm}), encoding="utf-8")
        paths["config"] = str(config)
    if workload == "score-batch":
        model = train_detector(parse_manifest(paths["nat"]),
                               parse_manifest(paths["artif"]),
                               spec.feature_config(),
                               GmmTrainConfig(seed=seed, **spec.gmm))
        paths["model"] = str(directory / "model.json")
        save_model(model, paths["model"])
    return paths


@dataclass
class PassResult:
    """What one pass did and produced; ``outputs`` is compared across passes."""

    attempted: int = 0
    failed: int = 0
    audio_s: float = 0.0
    outputs: object = None
    problems: list = field(default_factory=list)
    eer_avg_pct: float | None = None
    cache_hit_ratio: float = 0.0


@dataclass
class Run:
    """Everything a pass needs: the workload, its spec, set-up paths and seed."""

    workload: str
    spec: Spec
    paths: dict
    seed: int
    workdir: Path
    passes: int = 0

    def fresh_dir(self, stem: str) -> Path:
        self.passes += 1
        path = self.workdir / f"{stem}{self.passes}"
        path.mkdir(parents=True)
        return path


def feature_problem(feats, config: FeatureConfig, seconds: float) -> str | None:
    """Output check: finite, ``output_dim`` columns, about 100 frames/s."""
    frames = feats.frames
    expected = seconds * config.sample_rate / config.cqt.hop
    if frames.ndim != 2 or frames.shape[1] != config.output_dim:
        return f"{feats.source_id}: shape {frames.shape}, want {config.output_dim} columns"
    if abs(frames.shape[0] - expected) > 2:
        return f"{feats.source_id}: {frames.shape[0]} frames, want about {expected:.0f}"
    if not np.all(np.isfinite(frames)):
        return f"{feats.source_id}: non-finite features"
    return None


def _digest(feats) -> tuple:
    return feats.frames.shape, feats.frames.tobytes()


# ---------------------------------------------------------------------------
# Untraced passes: the program as a user calls it.
# ---------------------------------------------------------------------------

def _frontend_pass(run: Run, extract) -> PassResult:
    config = run.spec.feature_config()
    seconds = run.spec.seconds()
    result = PassResult(outputs={})
    for entry in parse_manifest(run.paths["utts"]):
        result.attempted += 1
        try:
            feats = extract(config, entry)
        except SpoofmeterError as exc:
            result.failed += 1
            result.outputs[entry.utt_id] = type(exc).__name__
            continue
        problem = feature_problem(feats, config, seconds[entry.utt_id])
        if problem:
            result.failed += 1
            result.problems.append(problem)
        else:
            result.audio_s += seconds[entry.utt_id]
        result.outputs[entry.utt_id] = _digest(feats)
    return result


def frontend_untraced(run: Run) -> PassResult:
    return _frontend_pass(run, lambda config, entry: extract_features(
        config, read_wav(entry.path), source_id=entry.utt_id))


def _grid_args(run: Run, out: Path) -> list:
    return ["grid", "--nat", run.paths["nat"], "--artif", run.paths["artif"],
            "--eval", run.paths["eval"], "--config", run.paths["config"],
            "--variants", ",".join(run.spec.variants),
            "--gaussians", ",".join(str(g) for g in run.spec.gaussians),
            "--seed", str(run.seed), "--out", str(out)]


def _cell_rows(run: Run, rows: list, result: PassResult):
    """Count the grid's cells as operations; each good one processed the corpus."""
    total_audio = sum(run.spec.seconds().values())
    expected = len(run.spec.variants) * len(run.spec.gaussians)
    if len(rows) != expected:
        result.problems.append(f"grid wrote {len(rows)} cells, want {expected}")
    values = []
    for row in rows:
        result.attempted += 1
        if row[-1] == "failed":
            result.failed += 1
            continue
        values.append(float(row[-1]))
        result.audio_s += total_audio
    result.outputs = [tuple(str(c) for c in row) for row in rows]
    if values:
        result.eer_avg_pct = float(np.mean(values))


def grid_untraced(run: Run) -> PassResult:
    directory = run.fresh_dir("grid")
    cache = directory / "cache"
    out = directory / "grid.tsv"
    saved = os.environ.get(CACHE_ENV_VAR)
    os.environ[CACHE_ENV_VAR] = str(cache)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(_grid_args(run, out))
    finally:
        if saved is None:
            os.environ.pop(CACHE_ENV_VAR, None)
        else:
            os.environ[CACHE_ENV_VAR] = saved
    result = PassResult()
    if code != 0:
        result.problems.append(f"grid exited with {code}")
        return result
    lines = [ln for ln in out.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    _cell_rows(run, [ln.split("\t") for ln in lines[1:]], result)

    # Hit ratio counted from outside: every cell looks up every file once,
    # and each lookup that missed left one cache file behind.
    n_files = sum(len(parse_manifest(run.paths[p])) for p in ("nat", "artif", "eval"))
    lookups = result.attempted * n_files
    written = len(list(cache.glob("*.feat")))
    if written != len(run.spec.variants) * n_files:
        result.problems.append(
            f"{written} cache files written, want one per variant and file")
    result.cache_hit_ratio = (lookups - written) / lookups
    return result


def score_untraced(run: Run) -> PassResult:
    model = load_model(run.paths["model"])
    manifest = parse_manifest(run.paths["eval"])
    result = PassResult(attempted=len(manifest))
    try:
        scores = score_batch(model, manifest)
    except BatchScoringError as exc:
        result.failed = len(exc.failures)
        result.problems.append(str(exc))
        return result
    _check_scores(run, manifest, scores, result)
    result.eer_avg_pct = attack_averaged_eer(scores).average_percent
    return result


def _check_scores(run: Run, manifest, scores: ScoreSet, result: PassResult):
    ids = [r.utt_id for r in scores.records]
    if ids != [e.utt_id for e in manifest]:
        result.problems.append("scores are not in manifest order")
    if not all(math.isfinite(r.llr) for r in scores.records):
        result.problems.append("non-finite LLR")
    seconds = run.spec.seconds()
    result.audio_s = sum(seconds[i] for i in ids)
    result.outputs = scores.records


UNTRACED = {"paper-frontend": frontend_untraced, "grid-em": grid_untraced,
            "score-batch": score_untraced}


# ---------------------------------------------------------------------------
# Traced passes: the same pipeline, re-composed from public calls.
# ---------------------------------------------------------------------------

def traced_features(tr, config: FeatureConfig, path: str, utt_id: str):
    """``extract_features(config, read_wav(path))`` one public call at a time."""
    with tr.span("audio_io.read_wav"):
        signal = read_wav(path)
    tr.count("read_wav.audio_s", signal.duration)
    if signal.sample_rate != config.sample_rate:
        with tr.span("audio_io.resample"):
            resampled = resample(signal, config.sample_rate)
        tr.count("resample.audio_s", signal.duration)
        signal = resampled
    with tr.span("cqt"):
        spec = cqt_spectrogram(signal, config.cqt)
    tr.count("cqt.audio_s", signal.duration)
    with tr.span("features.post_cqt"):
        uniform, _ = uniform_resample(log_power(spec), spec.center_freqs,
                                      config.cqcc.resample_period,
                                      n_points=config.effective_grid_size)
        ceps = dct_truncate(uniform, config.cqcc.num_ceps,
                            config.cqcc.include_zeroth)
        feats = append_deltas(ceps, config.cqcc, source_id=utt_id)
        if config.cqcc.apply_cmvn:
            feats = cmvn(feats)
    tr.count("post_cqt.frames", feats.n_frames)
    return feats


class TracedCache:
    """The feature cache as the grid uses it: one file per (config, WAV)."""

    def __init__(self, tr, directory: Path):
        self.tr = tr
        self.directory = directory
        self.files = {}

    def features(self, config: FeatureConfig, entry):
        key = (config, entry.path)
        if key in self.files:
            with self.tr.span("features.cache_read"):
                feats = read_feature_cache(self.files[key], source_id=entry.utt_id)
            self.tr.count("cache_read.frames", feats.n_frames)
            return feats
        feats = traced_features(self.tr, config, entry.path, entry.utt_id)
        path = self.directory / f"{len(self.files)}.feat"
        with self.tr.span("features.cache_write"):
            write_feature_cache(path, feats)
        self.tr.count("cache_write.frames", feats.n_frames)
        self.files[key] = path
        return feats


def traced_train(tr, frames, config: GmmTrainConfig):
    with tr.span("gmm.em"):
        gmm, history = train_gmm(frames, config, return_history=True)
    # Stage s of the binary-splitting schedule runs 2**(s+1) components.
    for stage, trace in enumerate(history):
        tr.count("em.iters", len(trace))
        tr.count("em.frame_comps", frames.shape[0] * 2 ** (stage + 1) * len(trace))
    return gmm


def traced_llr(tr, nat, artif, feats) -> float:
    with tr.span("gmm.score"):
        llr = avg_log_likelihood(nat, feats) - avg_log_likelihood(artif, feats)
    tr.count("score.frame_comps",
             feats.n_frames * (nat.n_components + artif.n_components))
    return llr


def traced_eer(tr, records):
    scores = ScoreSet(tuple(records))
    with tr.span("metrics.eer"):
        summary = attack_averaged_eer(scores)
    tr.count("eer.trials", sum(r.n_bonafide + r.n_spoof
                               for r in summary.per_attack.values()))
    return scores, summary


def frontend_traced(run: Run, tr) -> PassResult:
    return _frontend_pass(run, lambda config, entry: traced_features(
        tr, config, entry.path, entry.utt_id))


def _pooled(features, manifest):
    return np.vstack([features(entry).frames for entry in manifest])


def grid_traced(run: Run, tr) -> PassResult:
    feature_config, gmm_config = load_run_config(run.paths["config"])
    gmm_config = replace(gmm_config, seed=run.seed)
    nat, artif, evals = (parse_manifest(run.paths[p]) for p in ("nat", "artif", "eval"))
    cache = TracedCache(tr, run.fresh_dir("traced-grid"))
    rows = []
    for variant in run.spec.variants:
        cqcc = replace(feature_config.cqcc, apply_cmvn=False, **parse_variant(variant))
        config = FeatureConfig(feature_config.sample_rate, feature_config.cqt,
                               cqcc).pinned()

        def features(entry, config=config):
            return cache.features(config, entry)

        for n_components in run.spec.gaussians:
            cell_gmm = replace(gmm_config, target_components=n_components)
            try:
                nat_gmm = traced_train(tr, _pooled(features, nat), cell_gmm)
                artif_gmm = traced_train(tr, _pooled(features, artif), cell_gmm)
                records = [ScoreRecord(e.utt_id, e.label, e.system_id,
                                       traced_llr(tr, nat_gmm, artif_gmm, features(e)))
                           for e in evals]
                value = repr(float(traced_eer(tr, records)[1].average_percent))
            except (SpoofmeterError, OSError):
                value = "failed"
            rows.append((variant, "raw", str(n_components), value))
    result = PassResult()
    _cell_rows(run, rows, result)
    return result


def score_traced_setup(run: Run, tr) -> list:
    """Re-train and save the score-batch model with spans; it must match set-up's."""
    reference = load_model(run.paths["model"])
    config = run.spec.feature_config().pinned()
    gmm_config = GmmTrainConfig(seed=run.seed, **run.spec.gmm)

    def features(entry):
        return traced_features(tr, config, entry.path, entry.utt_id)

    nat = traced_train(tr, _pooled(features, parse_manifest(run.paths["nat"])), gmm_config)
    artif = traced_train(tr, _pooled(features, parse_manifest(run.paths["artif"])), gmm_config)
    model = DetectorModel(nat=nat, artif=artif, feature_config=config,
                          metadata=reference.metadata)
    path = run.fresh_dir("traced-model") / "model.json"
    with tr.span("model_io.save"):
        save_model(model, path)
    tr.count("save.calls")
    if path.read_bytes() != Path(run.paths["model"]).read_bytes():
        return ["traced training does not reproduce the set-up model"]
    return []


def score_traced(run: Run, tr) -> PassResult:
    with tr.span("model_io.load"):
        model = load_model(run.paths["model"])
    tr.count("load.calls")
    manifest = parse_manifest(run.paths["eval"])
    records = []
    for entry in manifest:
        feats = traced_features(tr, model.feature_config, entry.path, entry.utt_id)
        records.append(ScoreRecord(entry.utt_id, entry.label, entry.system_id,
                                   traced_llr(tr, model.nat, model.artif, feats)))
    scores, summary = traced_eer(tr, records)
    result = PassResult(attempted=len(manifest))
    _check_scores(run, manifest, scores, result)
    result.eer_avg_pct = summary.average_percent
    return result


TRACED = {"paper-frontend": frontend_traced, "grid-em": grid_traced,
          "score-batch": score_traced}

TRACED_SETUP = {"score-batch": score_traced_setup}
