"""Command-line surface and experiment orchestration.

Subcommands: ``train`` (fit the two class models), ``score`` (LLR per
evaluation utterance), ``eer`` (per-system and attack-averaged equal error
rates), ``report`` (EER joined with machine and, optionally, human opinion
scores; an EER above 50 %, where the machine score clamps at 5, is noted on
stderr), and ``grid`` (front-end variants crossed with Gaussian counts).

All tabular I/O is TSV under one rule (:mod:`spoofmeter.tables`): blank lines
and ``#`` lines are skipped anywhere, and the header is the first line that is
neither. Every output table starts with three ``#`` lines and no timestamp:
``tool:`` (name and version), ``command:`` (subcommand and input flags) and
``seed:``, recorded but never used, as no step draws random numbers. Identical
invocations on the same machine produce byte-identical artifacts, ``train``'s
only at the same BLAS thread count. The front end's matrix products (the
direct-form CQT and the DCT basis) and EM's round by how BLAS splits them over
threads. ``score`` and ``grid`` compute in worker processes at one BLAS
thread, so their outputs and the cache entries they write are those of a
one-thread run at any thread count; ``train`` computes in its
own process, so its features and model follow the caller's thread count. The
feature cache's key holds no thread count, so with ``SPOOFMETER_CACHE_DIR`` set
this holds only for a cold cache or one filled at the same thread count: a
later ``score`` serves the entries a two-thread ``train`` wrote as they are,
and a later ``train`` the one-thread entries of ``score`` and ``grid``. Each
output is written beside ``--out`` and renamed over it
(:func:`spoofmeter.tables.replacing`), so a failed command leaves an earlier
output as it was. An ``--out`` whose directory is missing, or that is a
directory, fails before any input is read.

The run configuration (``--config``) is a JSON object with the optional
keys ``sample_rate``, ``cqt``, ``cqcc`` and ``gmm``. The keys of the last
three are the fields of :class:`~spoofmeter.cqt.CqtConfig`,
:class:`~spoofmeter.features.CqccConfig` and
:class:`~spoofmeter.gmm.GmmTrainConfig` (``target_components``,
``em_iters_per_stage`` and ``seed``), typed as those fields are (see
:mod:`spoofmeter.config`); unknown keys and wrong types are errors that
name the file. So is a front end that cannot run, which
:class:`~spoofmeter.features.FeatureConfig` refuses before any WAV is read.
``grid`` overrides the config's ``cqcc`` block flags (``include_zeroth``
and ``use_*``) by ``--variants`` and its ``apply_cmvn`` by ``--cmvn``:
``"apply_cmvn": true`` still runs raw cells.

``train`` and ``grid`` compose the same detector parts
(:mod:`spoofmeter.detector`): ``train`` at one Gaussian count, in its own
process, and ``grid`` at all of them. ``grid`` does each expensive step once
per run, in the worker pool of :mod:`spoofmeter.workers` (one worker per
task, up to one per CPU the process may use), in three phases:

1. One task per distinct WAV fills the feature cache, the grid's one
   store: ``$SPOOFMETER_CACHE_DIR`` if set, else a temporary directory for
   the run (in ``$TMPDIR``; a killed ``grid`` leaves it behind). The task's
   :func:`~spoofmeter.features.features_for_file` call over every config
   computes the WAV's static cepstra once, only if a config misses, and
   writes each missing entry: the configs' summed ``output_dim`` float64
   per frame, so 118 KB per audio second for ``grid-em``'s variants (58 +
   90 columns at 100 frames per second), twice that with ``--cmvn both``.
   Over a warm cache it reads each entry and computes nothing. Phases 2
   and 3 only read entries.
2. One task per front-end config and class: the class's frames are pooled
   once and trained once, up to the largest Gaussian count they support.
   The artificial class trains beside the natural one, so also at counts
   the natural class cannot reach, whose cells fail with the natural
   class's error.
3. One task per front-end config: each eval file is scored by every
   count's detector in one pass.

EM, most of the work, is 2 x configs tasks and scoring is configs tasks, so
every worker is busy in EM while configs >= CPUs / 2. On more CPUs than
that, EM runs on fewer cores than one process's BLAS threads had. A cell
still fails alone, with the message its own ``train`` would print.

No process holds the cepstra of more than one file. The parent holds the
manifests and models; a worker holds, on top of about 65 MB for an
interpreter with numpy and scipy, what its task needs: one WAV's CQT, one
class's pooled frames and EM state, or one config's detectors. So the
summed resident peak is about (workers + 1) x 65 MB plus one task's needs
per worker, growing with the class size but not with the whole corpus. On
the benchmark's ``grid-em`` corpus with two workers it read 113 + 2 x 120
MB against 127 MB in one process, and 113 + 2 x 148 MB against 173 MB with
four times the files.

``score`` uses the same pool: the eval manifest goes to the workers in one
contiguous chunk each (:func:`~spoofmeter.detector.score_batch`), together
with the model, whose kernel tables each worker rebuilds. Each worker
holds its own interpreter, model and scoring buffers: a ``score`` of the
benchmark's 90-file eval set with a 2048-component model peaked at 83 MB
in the command's process and about 120 MB in each of two workers, 324 MB
summed, against 117 MB in one process, and the sum grows by one worker per
usable CPU (a cgroup CPU quota caps the count).

Starting the pool costs about 0.7 s, and a worker's first imports about as
much again; a process pays this once, as every later ``score`` or ``grid``
in it reuses the pool. A one-shot ``score`` pays it every time, so on
two CPUs it is slower than one process below about 250 files of that
set's 1.5 s (medians of 10 alternating runs on a 2-vCPU Xeon: 1.83 s
against 1.52 s for 90 files, 2.25 against 2.09 s for 180, 2.84 against
3.14 s for 360, 7.61 against 10.21 s for 1440).

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__, workers
from .config import checked, from_doc, read_json_object, to_doc
from .cqt import DEFAULT_OCTAVES, DEFAULT_SAMPLE_RATE
from .detector import (
    DetectorModel,
    class_models,
    feature_cache_dir,
    paired_detectors,
    pooled_frames,
    read_score_file,
    score_batch,
    score_batches,
    train_detector,
    write_score_file,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyPopulationError,
    NoSpoofSystemsError,
    NumericalError,
    SpoofmeterError,
)
from .features import FeatureConfig, default_feature_config, features_for_file
from .gmm import GmmTrainConfig
from .manifest import parse_manifest
from .metrics import (
    AVERAGE_ROW_ID,
    BONAFIDE,
    SPOOF,
    attack_averaged_eer,
    check_eer_percent,
    compute_mos,
    machine_opinion_score,
    read_opinion_file,
)
from .model_io import load_model, save_model
from .tables import read_table, write_table

_VARIANT_PARTS = ("z", "stat", "delta", "delta2")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def load_run_config(path=None):
    """Merge a JSON config file over the built-in defaults.

    Defaults reproduce the final reference setup: 16 kHz operating rate,
    96-bin/octave CQT over nine octaves below Nyquist, 29 delta+double-delta
    CQCCs without normalization, and 2048 Gaussians per class. ``f_max``
    defaults to Nyquist, ``f_min`` to nine octaves below the ``f_max`` in
    effect, and ``hop`` to a hundredth of the rate. A front end that cannot
    run (see :class:`~spoofmeter.features.FeatureConfig`, which checks it),
    or a number it cannot lay out, is a :class:`ConfigError` naming the
    file, before any manifest or WAV is read.
    """
    doc = {} if path is None else read_json_object(path)
    where = str(path)
    gmm = from_doc(GmmTrainConfig, doc.pop("gmm", {}), f"{where}: gmm",
                   to_doc(GmmTrainConfig()))
    rate = checked(doc.get("sample_rate", DEFAULT_SAMPLE_RATE), int,
                   f"{where}: sample_rate")
    try:
        defaults = to_doc(default_feature_config(rate))
    except ConfigError as exc:
        raise ConfigError(f"{where}: sample_rate {rate}: {exc}") from exc
    except OverflowError as exc:  # beyond a float
        raise ConfigError(f"{where}: sample_rate: {exc}") from exc
    cqt = doc.get("cqt")
    if isinstance(cqt, dict) and "f_max" in cqt:
        f_max = checked(cqt["f_max"], float, f"{where}: cqt: f_max")
        defaults["cqt"].update(f_max=f_max, f_min=f_max / 2.0 ** DEFAULT_OCTAVES)
    return from_doc(FeatureConfig, doc, where, defaults), gmm


def parse_variant(token: str) -> dict:
    """Turn a front-end variant like ``z+stat+delta+delta2`` into config flags."""
    parts = token.split("+")
    seen = set()
    for part in parts:
        if part not in _VARIANT_PARTS:
            raise ConfigError(
                f"unknown variant component {part!r} in {token!r} "
                f"(valid: {'/'.join(_VARIANT_PARTS)})")
        if part in seen:
            raise ConfigError(f"duplicate component {part!r} in {token!r}")
        seen.add(part)
    if not seen & {"stat", "delta", "delta2"}:
        raise ConfigError(f"variant {token!r} enables no feature block")
    return dict(include_zeroth="z" in seen, use_static="stat" in seen,
                use_delta="delta" in seen, use_delta2="delta2" in seen)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _header(command: str, seed="0") -> tuple:
    """The leading ``#`` lines of an output table."""
    return (f"tool: spoofmeter {__version__}", f"command: {command}",
            f"seed: {seed}")


def _with_gaussians(gmm_config, value, command: str) -> GmmTrainConfig:
    """``gmm_config`` at ``value`` Gaussians; a bad count is a usage error."""
    try:
        return replace(gmm_config, target_components=int(value))
    except (ValueError, ConfigError) as exc:
        raise UsageError(f"{command}: bad --gaussians value ({exc})") from None


def _cmd_train(args) -> int:
    feature_config, gmm_config = load_run_config(args.config)
    if args.seed is not None:
        gmm_config = replace(gmm_config, seed=args.seed)
    if args.gaussians is not None:
        gmm_config = _with_gaussians(gmm_config, args.gaussians, "train")

    nat = parse_manifest(args.nat)
    artif = parse_manifest(args.artif)
    model = train_detector(nat, artif, feature_config, gmm_config)
    save_model(model, args.out)
    print(f"trained {gmm_config.target_components}-component detector on "
          f"{len(nat)} natural / {len(artif)} artificial files -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    model = load_model(args.model)
    manifest = parse_manifest(args.eval)
    scores = score_batch(model, manifest)
    write_score_file(scores, args.out, comments=_header(
        f"score --model {args.model} --eval {args.eval}",
        model.metadata.get("seed", "0")))
    print(f"scored {len(scores)} utterances -> {args.out}")
    return 0


_EER_HEADER = ("system_id", "eer_percent", "threshold", "n_bonafide", "n_spoof")


def _cmd_eer(args) -> int:
    try:
        summary = attack_averaged_eer(read_score_file(args.scores))
    except (EmptyPopulationError, NoSpoofSystemsError) as exc:
        raise type(exc)(f"{args.scores}: {exc}") from exc
    rows = [(system, r.eer_percent, r.threshold, r.n_bonafide, r.n_spoof)
            for system, r in summary.per_attack.items()]
    # Every system shares the bona fide population; the spoof trials add up.
    rows.append((AVERAGE_ROW_ID, summary.average_percent, "-", rows[-1][3],
                 sum(row[4] for row in rows)))
    write_table(args.out, _EER_HEADER, rows,
                _header(f"eer --scores {args.scores}"))
    print(f"attack-averaged EER {summary.average_percent:.2f}% over "
          f"{len(summary.per_attack)} system(s) -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    eer_rows = read_table(
        args.eer, _EER_HEADER,
        lambda system, eer, *_: (system, check_eer_percent(float(eer))))
    mos_map = None
    if args.opinions is not None:
        mos_map = compute_mos(read_opinion_file(args.opinions))

    header = ["system_id", "eer_percent", "machine_opinion_score"]
    if mos_map is not None:
        header.append("mos")
    rows = []
    for system, eer in eer_rows:
        if system == AVERAGE_ROW_ID:
            continue
        if eer > 50.0:  # the opinion score clamps it to 5
            print(f"spoofmeter: {args.eer}: system {system}: EER of "
                  f"{eer:.2f}% is above chance level; this usually indicates "
                  f"an implementation problem in the detector",
                  file=sys.stderr)
        row = [system, eer, machine_opinion_score(eer)]
        if mos_map is not None:
            row.append(mos_map.get(system, "-"))
        rows.append(row)
    write_table(args.out, header, rows, _header(
        f"report --eer {args.eer}"
        + (f" --opinions {args.opinions}" if args.opinions else "")))
    print(f"report for {len(rows)} system(s) -> {args.out}")
    return 0


def _fill_feature_cache(configs, cache_dir, path) -> None:
    """Write each of ``configs``' entry of one WAV in ``cache_dir``, or
    nothing if that fails: a cell that needs the WAV then fails as its own
    ``train`` would, reading it again."""
    try:
        features_for_file(configs, path, "", cache_dir)
    except Exception:
        pass


def _train_class(gmm_config, counts, cache_dir, task):
    """``(frame count, class models)`` of one class at one front-end config
    and every count, or the file error that fails the class."""
    config, manifest, name = task
    try:
        frames = pooled_frames(manifest, config, cache_dir)
    except SpoofmeterError as exc:
        return exc
    return len(frames), class_models(frames, manifest, name, gmm_config,
                                     counts)


def _scored_cells(eval_manifest, cache_dir, cells) -> dict:
    """``cells`` with each detector replaced by its attack-averaged EER.

    Each eval file is scored by every count's detector in one pass. A cell
    fails with the error its own ``score`` would raise.
    """
    detectors = {count: model for count, model in cells.items()
                 if isinstance(model, DetectorModel)}
    if not detectors:
        return cells
    try:
        score_sets = score_batches(list(detectors.values()), eval_manifest,
                                   cache_dir)
    except SpoofmeterError as exc:
        return {**cells, **dict.fromkeys(detectors, exc)}
    # No EER error is left: _cmd_grid checked both eval populations.
    for count, scores in zip(detectors, score_sets):
        cells[count] = attack_averaged_eer(scores).average_percent
    return cells


def _cmd_grid(args) -> int:
    feature_config, gmm_config = load_run_config(args.config)
    if args.seed is not None:
        gmm_config = replace(gmm_config, seed=args.seed)

    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise UsageError("grid: --variants is empty")
    try:
        variant_flags = {v: parse_variant(v) for v in variants}
    except ConfigError as exc:
        raise UsageError(f"grid: bad --variants value ({exc})") from None
    # A repeated cell would train again and write the same row twice.
    if len({tuple(f.values()) for f in variant_flags.values()}) < len(variants):
        raise UsageError("grid: --variants repeats a variant")
    counts = [_with_gaussians(gmm_config, c, "grid").target_components
              for c in args.gaussians.split(",") if c.strip()]
    if not counts:
        raise UsageError("grid: --gaussians is empty")
    if len(set(counts)) < len(counts):
        raise UsageError("grid: --gaussians repeats a count")
    cmvn_settings = {"raw": [False], "cmvn": [True],
                     "both": [False, True]}[args.cmvn]

    nat = parse_manifest(args.nat)
    artif = parse_manifest(args.artif)
    eval_manifest = parse_manifest(args.eval)
    # Every cell needs both eval populations: check once, before training.
    labels = {entry.label for entry in eval_manifest}
    if BONAFIDE not in labels:
        raise EmptyPopulationError(
            f"{args.eval}: evaluation manifest has no bona fide rows")
    if SPOOF not in labels:
        raise NoSpoofSystemsError(
            f"{args.eval}: evaluation manifest has no spoof rows")

    # One front-end config per row of cells, computed in the worker pool:
    # every config's cache entry of each WAV, then each config's two class
    # models, then each config's scores.
    modes = [(variant, "cmvn" if use_cmvn else "raw")
             for variant in variants for use_cmvn in cmvn_settings]
    configs = [replace(feature_config, cqcc=replace(
        feature_config.cqcc, apply_cmvn=mode == "cmvn",
        **variant_flags[variant])).pinned() for variant, mode in modes]
    classes = [(nat, "natural-speech"), (artif, "artificial-speech")]
    wavs = list(dict.fromkeys(e.path for e in (*nat, *artif, *eval_manifest)))
    cache_dir = feature_cache_dir()
    with (contextlib.nullcontext(cache_dir) if cache_dir else
          tempfile.TemporaryDirectory(prefix="spoofmeter-")) as cache_dir:
        workers.ordered_map(partial(_fill_feature_cache, configs, cache_dir),
                            wavs)
        trained = iter(workers.ordered_map(
            partial(_train_class, gmm_config, counts, cache_dir),
            [(config, *c) for config in configs for c in classes]))
        row_detectors = [paired_detectors(nat, artif, config, gmm_config,
                                          counts, next(trained), next(trained))
                         for config in configs]
        row_cells = workers.ordered_map(
            partial(_scored_cells, eval_manifest, cache_dir), row_detectors)
    rows = []
    for (variant, mode), cells in zip(modes, row_cells):
        for n_components in counts:
            value = cells[n_components]
            if isinstance(value, Exception):
                print(f"grid cell ({variant}, {mode}, {n_components}) "
                      f"failed: {value}", file=sys.stderr)
                value = "failed"
            rows.append((variant, mode, n_components, value))

    command = (f"grid --nat {args.nat} --artif {args.artif} --eval {args.eval}"
               f" --variants {args.variants} --gaussians {args.gaussians}"
               f" --cmvn {args.cmvn}"
               + (f" --config {args.config}" if args.config else ""))
    write_table(args.out, ("variant", "cmvn", "gaussians", "eer_percent"),
                rows, _header(command, gmm_config.seed))
    print(f"grid of {len(rows)} cell(s) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofmeter",
                     description="Objective artifact assessment of converted "
                                 "speech via a CQCC-GMM countermeasure.")
    parser.add_argument("--version", action="version",
                        version=f"spoofmeter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the two-class detector")
    train.add_argument("--nat", required=True, help="natural-speech manifest")
    train.add_argument("--artif", required=True, help="artificial-speech manifest")
    train.add_argument("--config", default=None, help="JSON run configuration")
    train.add_argument("--out", required=True, help="output model file")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--gaussians", type=int, default=None,
                       help="override the configured component count")
    train.set_defaults(func=_cmd_train)

    score = sub.add_parser("score", help="score an evaluation manifest")
    score.add_argument("--model", required=True)
    score.add_argument("--eval", required=True, help="evaluation manifest")
    score.add_argument("--out", required=True, help="output score TSV")
    score.set_defaults(func=_cmd_score)

    eer = sub.add_parser("eer", help="per-system and averaged EER from scores")
    eer.add_argument("--scores", required=True, help="score TSV")
    eer.add_argument("--out", required=True, help="output EER table TSV")
    eer.set_defaults(func=_cmd_eer)

    report = sub.add_parser(
        "report", help="join EERs with machine (and human) opinion scores")
    report.add_argument("--eer", required=True, help="EER table TSV")
    report.add_argument("--opinions", default=None,
                        help="optional listener-opinion TSV")
    report.add_argument("--out", required=True, help="output report TSV")
    report.set_defaults(func=_cmd_report)

    grid = sub.add_parser(
        "grid", help="front-end variants x Gaussian counts experiment")
    grid.add_argument("--nat", required=True)
    grid.add_argument("--artif", required=True)
    grid.add_argument("--eval", required=True)
    grid.add_argument("--variants", required=True,
                      help="comma list, e.g. delta+delta2,z+stat+delta+delta2;"
                           " overrides the config's cqcc block flags")
    grid.add_argument("--gaussians", required=True,
                      help="comma list of component counts, e.g. 32,2048")
    grid.add_argument("--cmvn", choices=("raw", "cmvn", "both"), default="raw",
                      help="overrides the config's cqcc apply_cmvn")
    grid.add_argument("--config", default=None)
    grid.add_argument("--out", required=True, help="output grid TSV")
    grid.add_argument("--seed", type=int, default=None)
    grid.set_defaults(func=_cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Before any input is read, and by the name given, not the temporary
        # file that tables.replacing writes beside it.
        out = Path(args.out)
        if not out.parent.is_dir():
            raise FileNotFoundError(f"--out {out}: no directory {out.parent}")
        if out.is_dir():
            raise IsADirectoryError(f"--out {out} is a directory")
        return args.func(args)
    except UsageError as exc:
        print(f"spoofmeter: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"spoofmeter: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"spoofmeter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # As spoofmeter.cli, the name by which a worker finds the functions that
    # grid sends it.
    from spoofmeter.cli import main
    raise SystemExit(main())
