"""Command-line surface and experiment orchestration.

Subcommands: ``train`` (fit the two class models), ``score`` (LLR per
evaluation utterance), ``eer`` (per-system and attack-averaged equal error
rates), ``report`` (EER joined with machine and, optionally, human opinion
scores), and ``grid`` (front-end variants crossed with Gaussian counts).

All tabular I/O is TSV under one rule (:mod:`spoofmeter.tables`): blank
lines and ``#`` lines are skipped anywhere, and the header is the first line
that is neither. Every output embeds the configuration that produced it in
leading ``#`` comment lines, with no timestamps, so identical invocations on
the same machine at the same BLAS thread count produce byte-identical
artifacts (EM's matrix products round by how BLAS splits them over threads).
Each output is written beside ``--out`` and renamed over it
(:func:`spoofmeter.tables.replacing`), so a failed command leaves an earlier
output as it was.

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

``grid`` does each expensive step once per run. Every WAV's static cepstra
(:func:`~spoofmeter.features.static_cepstra`) are computed once and kept in
memory for the whole run: ``num_ceps + 1`` float64 per frame, about 24 KB
per audio second at the defaults. Per front-end config, each class's
frames are pooled once and trained once, up to the largest Gaussian count
they support, and each eval file is scored by every count in one pass. A
cell still fails alone, with the message its own ``train`` would print.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import checked, from_doc, to_doc
from .cqt import DEFAULT_OCTAVES, DEFAULT_SAMPLE_RATE
from .detector import (
    DetectorModel,
    check_not_empty,
    class_models,
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
from .features import FeatureConfig, default_feature_config
from .gmm import GmmTrainConfig
from .manifest import parse_manifest
from .metrics import (
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

AVERAGE_ROW_ID = "(average)"

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
    run (see :class:`~spoofmeter.features.FeatureConfig`, which checks it) is
    an error naming the file, before any WAV is read.
    """
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    where = str(path)
    gmm = from_doc(GmmTrainConfig, doc.pop("gmm", {}), f"{where}: gmm",
                   to_doc(GmmTrainConfig()))
    rate = checked(doc.get("sample_rate", DEFAULT_SAMPLE_RATE), int,
                   f"{where}: sample_rate")
    try:
        defaults = to_doc(default_feature_config(rate))
    except ConfigError as exc:
        raise ConfigError(f"{where}: sample_rate {rate}: {exc}") from exc
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

def _cmd_train(args) -> int:
    feature_config, gmm_config = load_run_config(args.config)
    if args.seed is not None:
        gmm_config = replace(gmm_config, seed=args.seed)
    if args.gaussians is not None:
        try:
            gmm_config = replace(gmm_config, target_components=args.gaussians)
        except ConfigError as exc:
            raise UsageError(f"train: bad --gaussians value ({exc})") from None

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
    write_score_file(scores, args.out, comments=(
        f"tool: spoofmeter {__version__}",
        f"command: score --model {args.model} --eval {args.eval}",
        f"seed: {model.metadata.get('seed', '0')}",
    ))
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
    write_table(args.out, _EER_HEADER, rows, (
        f"tool: spoofmeter {__version__}",
        f"command: eer --scores {args.scores}",
        "seed: 0",
    ))
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
        # Above 50 % the score is clamped with a warning; say it as ours.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = [system, eer, machine_opinion_score(eer)]
        for warning in caught:
            print(f"spoofmeter: {args.eer}: system {system}: "
                  f"{warning.message}", file=sys.stderr)
        if mos_map is not None:
            row.append(mos_map.get(system, "-"))
        rows.append(row)
    write_table(args.out, header, rows, (
        f"tool: spoofmeter {__version__}",
        f"command: report --eer {args.eer}"
        + (f" --opinions {args.opinions}" if args.opinions else ""),
        "seed: 0",
    ))
    print(f"report for {len(rows)} system(s) -> {args.out}")
    return 0


def _grid_cells(nat, artif, eval_manifest, config, gmm_config, counts,
                static_memo) -> dict:
    """Attack-averaged EER, or the error that fails the cell, per count.

    One front-end config's row of the grid. Each class's frames are pooled
    once and trained once, up to the largest count they support, and each
    eval file is scored by every count's detector in one pass. A cell fails
    with the error its own ``train_detector`` and ``score_batch`` would
    raise.
    """
    try:
        nat_frames = pooled_frames(nat, "natural-speech", config, static_memo)
        artif_frames = pooled_frames(artif, "artificial-speech", config,
                                     static_memo)
    except SpoofmeterError as exc:
        return dict.fromkeys(counts, exc)
    cells = class_models(nat_frames, nat, "natural-speech", gmm_config, counts)
    trained = [c for c in counts if not isinstance(cells[c], Exception)]
    artif_gmms = class_models(artif_frames, artif, "artificial-speech",
                              gmm_config, trained)
    detectors = {}
    for count in trained:
        if isinstance(artif_gmms[count], Exception):
            cells[count] = artif_gmms[count]
        else:
            detectors[count] = DetectorModel(cells[count], artif_gmms[count],
                                             config)
    if not detectors:
        return cells
    try:
        score_sets = score_batches(list(detectors.values()), eval_manifest,
                                   static_memo)
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
    try:
        cell_gmms = [replace(gmm_config, target_components=int(c))
                     for c in args.gaussians.split(",") if c.strip()]
    except (ValueError, ConfigError) as exc:
        raise UsageError(f"grid: bad --gaussians value ({exc})") from None
    if not cell_gmms:
        raise UsageError("grid: --gaussians is empty")
    if len({g.target_components for g in cell_gmms}) < len(cell_gmms):
        raise UsageError("grid: --gaussians repeats a count")
    cmvn_settings = {"raw": [False], "cmvn": [True],
                     "both": [False, True]}[args.cmvn]

    nat = parse_manifest(args.nat)
    artif = parse_manifest(args.artif)
    eval_manifest = parse_manifest(args.eval)
    # Every cell needs these, so check them once before the first trains.
    check_not_empty(nat, "natural-speech")
    check_not_empty(artif, "artificial-speech")
    labels = {entry.label for entry in eval_manifest}
    if BONAFIDE not in labels:
        raise EmptyPopulationError(
            f"{args.eval}: evaluation manifest has no bona fide rows")
    if SPOOF not in labels:
        raise NoSpoofSystemsError(
            f"{args.eval}: evaluation manifest has no spoof rows")

    counts = [g.target_components for g in cell_gmms]
    static_memo = {}
    rows = []
    for variant in variants:
        for use_cmvn in cmvn_settings:
            cqcc = replace(feature_config.cqcc, apply_cmvn=use_cmvn,
                           **variant_flags[variant])
            config = replace(feature_config, cqcc=cqcc).pinned()
            mode = "cmvn" if use_cmvn else "raw"
            cells = _grid_cells(nat, artif, eval_manifest, config, gmm_config,
                                counts, static_memo)
            for n_components in counts:
                value = cells[n_components]
                if isinstance(value, Exception):
                    print(f"grid cell ({variant}, {mode}, {n_components}) "
                          f"failed: {value}", file=sys.stderr)
                    value = "failed"
                rows.append((variant, mode, n_components, value))

    write_table(args.out, ("variant", "cmvn", "gaussians", "eer_percent"),
                rows, (
        f"tool: spoofmeter {__version__}",
        f"command: grid --nat {args.nat} --artif {args.artif} "
        f"--eval {args.eval} --variants {args.variants} "
        f"--gaussians {args.gaussians} --cmvn {args.cmvn}",
        f"seed: {gmm_config.seed}",
    ))
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
    raise SystemExit(main())
