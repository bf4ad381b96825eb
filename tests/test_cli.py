import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    NOT_FEATURES,
    RATE,
    burst_resonant_noise,
    make_wav_corpus,
    mulaw_distort,
    reference_detector,
    resonant_noise,
    save_npy,
    tone,
)
from spoofmeter import (
    attack_averaged_eer,
    cli,
    features,
    score_batch,
    workers,
)
from spoofmeter.cli import main, parse_variant
from spoofmeter.detector import CACHE_ENV_VAR
from spoofmeter.errors import (
    ConfigError,
    DataError,
    EmptyManifestError,
    EmptyPopulationError,
    NoSpoofSystemsError,
    SpoofmeterError,
)
from spoofmeter.manifest import MANIFEST_COLUMNS, parse_manifest
from spoofmeter.tables import write_table

RUN_CONFIG = {
    "sample_rate": 16000,
    "cqt": {"bins_per_octave": 12, "f_min": 500.0, "f_max": 8000.0, "hop": 160},
    "cqcc": {"num_ceps": 8, "include_zeroth": True, "use_static": True,
             "use_delta": True, "use_delta2": True},
    "gmm": {"target_components": 2, "em_iters_per_stage": 3},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ws")
    rng = np.random.default_rng(60)
    low = dict(freq_range=(300.0, 900.0))
    high = dict(freq_range=(2500.0, 3800.0))

    nat = make_wav_corpus(root / "nat", [
        (f"n{i}", "bonafide", "-", resonant_noise(rng, 4000, **low))
        for i in range(3)])
    artif = make_wav_corpus(root / "artif", [
        (f"a{i}", "spoof", "vcX", resonant_noise(rng, 4000, **high))
        for i in range(3)])
    eval_entries = (
        [(f"eb{i}", "bonafide", "-", resonant_noise(rng, 4000, **low))
         for i in range(3)]
        + [(f"ea{i}", "spoof", "sysA", resonant_noise(rng, 4000, **high))
           for i in range(2)]
        + [(f"es{i}", "spoof", "sysB", resonant_noise(rng, 4000, **high))
           for i in range(2)]
    )
    eval_manifest = make_wav_corpus(root / "eval", eval_entries)

    config = root / "run.json"
    config.write_text(json.dumps(RUN_CONFIG))
    return {"root": root, "nat": nat, "artif": artif, "eval": eval_manifest,
            "config": config}


@pytest.fixture(scope="module")
def trained_model(workspace):
    model = workspace["root"] / "model.json"
    rc = main(["train", "--nat", str(workspace["nat"]),
               "--artif", str(workspace["artif"]),
               "--config", str(workspace["config"]),
               "--out", str(model), "--seed", "7"])
    assert rc == 0
    return model


@pytest.fixture
def pool_in_process(monkeypatch):
    """``grid``'s pool map, run in this process, where a patch is seen."""
    monkeypatch.setattr(workers, "ordered_map",
                        lambda fn, items: [fn(item) for item in items])


def _data_rows(path):
    lines = [l for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    return lines[0].split("\t"), [l.split("\t") for l in lines[1:]]


class TestTrainScoreEer:
    def test_train_writes_model(self, trained_model):
        doc = json.loads(trained_model.read_text())
        assert doc["format_version"] == 2
        assert doc["metadata"]["seed"] == "7"

    def test_score_outputs_manifest_order(self, workspace, trained_model):
        out = workspace["root"] / "scores.tsv"
        rc = main(["score", "--model", str(trained_model),
                   "--eval", str(workspace["eval"]), "--out", str(out)])
        assert rc == 0
        header, rows = _data_rows(out)
        assert header == ["utt_id", "label", "system_id", "llr"]
        assert [r[0] for r in rows] == ["eb0", "eb1", "eb2", "ea0", "ea1",
                                        "es0", "es1"]

    def test_score_is_byte_deterministic(self, workspace, trained_model):
        out1 = workspace["root"] / "s1.tsv"
        out2 = workspace["root"] / "s2.tsv"
        args = ["score", "--model", str(trained_model),
                "--eval", str(workspace["eval"])]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eer_table_has_per_system_and_average_rows(self, workspace,
                                                       trained_model):
        scores = workspace["root"] / "scores_eer.tsv"
        table = workspace["root"] / "eer.tsv"
        assert main(["score", "--model", str(trained_model),
                     "--eval", str(workspace["eval"]),
                     "--out", str(scores)]) == 0
        assert main(["eer", "--scores", str(scores), "--out", str(table)]) == 0
        header, rows = _data_rows(table)
        assert header == ["system_id", "eer_percent", "threshold",
                          "n_bonafide", "n_spoof"]
        assert [r[0] for r in rows] == ["sysA", "sysB", "(average)"]
        eers = {r[0]: float(r[1]) for r in rows}
        assert eers["(average)"] == pytest.approx(
            (eers["sysA"] + eers["sysB"]) / 2.0)

    def test_score_keeps_the_model_seed_and_takes_no_seed_flag(
            self, workspace, trained_model, capsys):
        out = workspace["root"] / "seeded.tsv"
        args = ["score", "--model", str(trained_model),
                "--eval", str(workspace["eval"]), "--out", str(out)]
        assert main(args + ["--seed", "9"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert main(args) == 0
        assert "# seed: 7\n" in out.read_text()

    @pytest.mark.parametrize("kind", NOT_FEATURES)
    def test_score_rebuilds_a_cache_entry_that_is_not_features(
            self, workspace, trained_model, tmp_path, monkeypatch, kind):
        args = ["score", "--model", str(trained_model),
                "--eval", str(workspace["eval"])]
        cold = tmp_path / "cold"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cold))
        assert main(args + ["--out", str(tmp_path / "cold.tsv")]) == 0
        warm = tmp_path / "warm"
        shutil.copytree(cold, warm)
        entry = sorted(warm.glob("*.feat"))[0]
        save_npy(entry, NOT_FEATURES[kind][0])
        monkeypatch.setenv(CACHE_ENV_VAR, str(warm))
        assert main(args + ["--out", str(tmp_path / "warm.tsv")]) == 0
        assert ((tmp_path / "warm.tsv").read_bytes()
                == (tmp_path / "cold.tsv").read_bytes())
        assert entry.read_bytes() == (cold / entry.name).read_bytes()
        assert sorted(p.name for p in warm.iterdir()) == sorted(
            p.name for p in cold.iterdir())


class TestReport:
    @pytest.fixture()
    def eer_table(self, tmp_path):
        path = tmp_path / "eer.tsv"
        path.write_text(
            "system_id\teer_percent\tthreshold\tn_bonafide\tn_spoof\n"
            "B01\t18.18\t0.0\t100\t100\n"
            "N10\t2.49\t0.0\t100\t100\n"
            "(average)\t10.335\t-\t100\t200\n")
        return path

    def test_report_without_opinions(self, eer_table, tmp_path):
        out = tmp_path / "report.tsv"
        assert main(["report", "--eer", str(eer_table), "--out", str(out)]) == 0
        header, rows = _data_rows(out)
        assert header == ["system_id", "eer_percent", "machine_opinion_score"]
        assert [r[0] for r in rows] == ["B01", "N10"]  # average row dropped
        scores = {r[0]: r[2] for r in rows}
        assert scores["B01"] == "1.818"

    def test_report_with_opinions(self, eer_table, tmp_path):
        opinions = tmp_path / "op.tsv"
        opinions.write_text(
            "utt_id\tsystem_id\tlistener_id\tscore\n"
            "u1\tB01\tl1\t4\nu2\tB01\tl2\t5\nu3\tN10\tl1\t4\n")
        out = tmp_path / "report.tsv"
        assert main(["report", "--eer", str(eer_table),
                     "--opinions", str(opinions), "--out", str(out)]) == 0
        header, rows = _data_rows(out)
        assert header[-1] == "mos"
        mos = {r[0]: r[3] for r in rows}
        assert float(mos["B01"]) == 4.5
        assert float(mos["N10"]) == 4.0

    def test_eer_above_chance_warns_naming_table_and_system(
            self, eer_table, tmp_path, capsys):
        above = tmp_path / "above.tsv"
        above.write_text(eer_table.read_text().replace(
            "N10\t2.49", "N10\t66.67"))
        out = tmp_path / "report.tsv"
        assert main(["report", "--eer", str(above), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            f"spoofmeter: {above}: system N10: EER of 66.67% is above chance "
            f"level; this usually indicates an implementation problem in "
            f"the detector\n")
        _, rows = _data_rows(out)
        assert rows[1] == ["N10", "66.67", "5.0"]


class TestGrid:
    def test_grid_cardinality_and_determinism(self, workspace):
        out1 = workspace["root"] / "grid1.tsv"
        out2 = workspace["root"] / "grid2.tsv"
        args = ["grid", "--nat", str(workspace["nat"]),
                "--artif", str(workspace["artif"]),
                "--eval", str(workspace["eval"]),
                "--variants", "delta+delta2,z+stat+delta+delta2",
                "--gaussians", "1,2",
                "--config", str(workspace["config"]),
                "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        header, rows = _data_rows(out1)
        assert header == ["variant", "cmvn", "gaussians", "eer_percent"]
        assert len(rows) == 4
        assert {r[0] for r in rows} == {"delta+delta2", "z+stat+delta+delta2"}
        assert all(r[1] == "raw" for r in rows)
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("with_config", [False, True])
    def test_command_line_records_the_run_config(
            self, workspace, tmp_path, monkeypatch, pool_in_process,
            with_config):
        # The run config sets every cell's front end and EM schedule, so the
        # header names it when one was given.
        monkeypatch.setattr(cli, "_train_class",
                            lambda *args: DataError("no training"))
        monkeypatch.setattr(cli, "_scored_cells", lambda *args: {2: 12.5})
        out = tmp_path / "grid.tsv"
        argv = ["grid", "--nat", str(workspace["nat"]),
                "--artif", str(workspace["artif"]),
                "--eval", str(workspace["eval"]),
                "--variants", "stat", "--gaussians", "2"]
        if with_config:
            argv += ["--config", str(workspace["config"])]
        assert main(argv + ["--out", str(out)]) == 0
        command = (f"# command: grid --nat {workspace['nat']}"
                   f" --artif {workspace['artif']} --eval {workspace['eval']}"
                   " --variants stat --gaussians 2 --cmvn raw")
        if with_config:
            command += f" --config {workspace['config']}"
        assert out.read_text().splitlines()[1] == command
        assert _data_rows(out)[1] == [["stat", "raw", "2", "12.5"]]

    def test_cmvn_both_is_the_same_through_the_feature_cache(
            self, workspace, tmp_path, monkeypatch):
        args = ["grid", "--nat", str(workspace["nat"]),
                "--artif", str(workspace["artif"]),
                "--eval", str(workspace["eval"]),
                "--variants", "delta+delta2,z+stat+delta+delta2",
                "--gaussians", "1,2", "--cmvn", "both",
                "--config", str(workspace["config"])]
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert main(args + ["--out", str(tmp_path / "uncached.tsv")]) == 0
        cache = tmp_path / "cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        assert main(args + ["--out", str(tmp_path / "cached.tsv")]) == 0

        uncached = (tmp_path / "uncached.tsv").read_bytes()
        assert (tmp_path / "cached.tsv").read_bytes() == uncached
        _, rows = _data_rows(tmp_path / "cached.tsv")
        assert sorted({r[1] for r in rows}) == ["cmvn", "raw"]
        assert len(rows) == 8
        assert all(0.0 <= float(r[3]) <= 100.0 for r in rows)
        n_files = sum(len(_data_rows(workspace[m])[1])
                      for m in ("nat", "artif", "eval"))
        # one entry per variant, CMVN setting and file: the Gaussian count
        # is not part of the key
        assert len(list(cache.glob("*.feat"))) == 2 * 2 * n_files

    def test_variant_parsing(self):
        flags = parse_variant("z+stat+delta+delta2")
        assert flags == {"include_zeroth": True, "use_static": True,
                         "use_delta": True, "use_delta2": True}
        assert parse_variant("stat")["use_static"] is True
        with pytest.raises(ConfigError):
            parse_variant("z+static")
        with pytest.raises(ConfigError):
            parse_variant("z")


def _grid_cell_oracle(manifests, config_path, variant, use_cmvn, count):
    """One grid cell as its own reference_detector + score_batch + EER: the
    EER, or the stderr line of the failed cell."""
    feature_config, gmm_config = cli.load_run_config(config_path)
    cqcc = replace(feature_config.cqcc, apply_cmvn=use_cmvn,
                   **parse_variant(variant))
    nat, artif, evals = (parse_manifest(manifests[name])
                         for name in ("nat", "artif", "eval"))
    try:
        model = reference_detector(
            nat, artif, replace(feature_config, cqcc=cqcc),
            replace(gmm_config, target_components=count))
        return attack_averaged_eer(score_batch(model, evals)).average_percent
    except SpoofmeterError as exc:
        mode = "cmvn" if use_cmvn else "raw"
        return f"grid cell ({variant}, {mode}, {count}) failed: {exc}"


def _check_grid_against_cells(manifests, config_path, variants, gaussians,
                              cmvn, out, capsys):
    """Run ``grid`` and compare every row and stderr line with the oracle.

    Returns the stderr lines.
    """
    capsys.readouterr()
    assert main(["grid", "--nat", str(manifests["nat"]),
                 "--artif", str(manifests["artif"]),
                 "--eval", str(manifests["eval"]),
                 "--variants", ",".join(variants),
                 "--gaussians", ",".join(map(str, gaussians)),
                 "--cmvn", cmvn, "--config", str(config_path),
                 "--out", str(out)]) == 0
    errors = capsys.readouterr().err.splitlines()
    _, rows = _data_rows(out)
    modes = {"raw": [False], "cmvn": [True], "both": [False, True]}[cmvn]
    cells = [(v, m, c) for v in variants for m in modes for c in gaussians]
    assert [tuple(r[:3]) for r in rows] == [
        (v, "cmvn" if m else "raw", str(c)) for v, m, c in cells]
    # Unset while the oracle runs, so it extracts every cell afresh.
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CACHE_ENV_VAR, raising=False)
        expected = [_grid_cell_oracle(manifests, config_path, *cell)
                    for cell in cells]
    assert [r[3] for r in rows] == [
        "failed" if isinstance(e, str) else repr(e) for e in expected]
    assert errors == [e for e in expected if isinstance(e, str)]
    return errors


class TestGridSharesWork:
    """``grid`` extracts each WAV's static cepstra once and trains each class
    once per front-end config, and still gives each cell's own result."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_matches_per_cell_training_and_scoring(
            self, workspace, tmp_path, monkeypatch, capsys, cached):
        if cached:
            monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        else:
            monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        errors = _check_grid_against_cells(
            workspace, workspace["config"],
            ["delta+delta2", "z+stat+delta+delta2"], [1, 2, 4], "both",
            tmp_path / "grid.tsv", capsys)
        assert errors == []

    @staticmethod
    def _cqt_inputs(workspace, tmp_path, monkeypatch, out):
        """The samples of every CQT one ``grid`` run computes."""
        calls = []
        real = features.cqt_spectrogram

        def counting(signal, config):
            calls.append(signal.samples.tobytes())
            return real(signal, config)

        with monkeypatch.context() as patch:
            patch.setattr(features, "cqt_spectrogram", counting)
            assert main(["grid", "--nat", str(workspace["nat"]),
                         "--artif", str(workspace["artif"]),
                         "--eval", str(workspace["eval"]),
                         "--variants", "delta+delta2,z+stat+delta+delta2",
                         "--gaussians", "1,2,4", "--cmvn", "both",
                         "--config", str(workspace["config"]),
                         "--out", str(tmp_path / out)]) == 0
        return calls

    # The pool's map runs in this process here, so that the count sees the
    # CQTs of both phases.
    @pytest.mark.parametrize("cached", [False, True])
    def test_cqt_runs_once_per_distinct_wav(self, workspace, tmp_path,
                                            monkeypatch, pool_in_process,
                                            cached):
        if cached:
            monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        else:
            monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        calls = self._cqt_inputs(workspace, tmp_path, monkeypatch, "grid.tsv")
        n_wavs = sum(len(_data_rows(workspace[m])[1])
                     for m in ("nat", "artif", "eval"))
        assert len(calls) == n_wavs
        assert len(set(calls)) == n_wavs

    def test_warm_cache_runs_no_cqt(self, workspace, tmp_path, monkeypatch,
                                    pool_in_process):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        assert self._cqt_inputs(workspace, tmp_path, monkeypatch, "cold.tsv")
        assert self._cqt_inputs(workspace, tmp_path, monkeypatch,
                                "warm.tsv") == []
        assert ((tmp_path / "warm.tsv").read_bytes()
                == (tmp_path / "cold.tsv").read_bytes())

    def test_damaged_cache_runs_each_cqt_once(self, workspace, tmp_path,
                                              monkeypatch, pool_in_process):
        # A damaged entry is missed by the first config that reads it, not
        # by the first phase: that config computes the WAV's cepstra, and
        # the three other configs load them.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        self._cqt_inputs(workspace, tmp_path, monkeypatch, "cold.tsv")
        for entry in (tmp_path / "cache").iterdir():
            entry.write_bytes(b"damaged")
        calls = self._cqt_inputs(workspace, tmp_path, monkeypatch,
                                 "damaged.tsv")
        n_wavs = sum(len(_data_rows(workspace[m])[1])
                     for m in ("nat", "artif", "eval"))
        assert len(calls) == len(set(calls)) == n_wavs
        assert ((tmp_path / "damaged.tsv").read_bytes()
                == (tmp_path / "cold.tsv").read_bytes())


class TestGridFailures:
    """A cell fails alone, with the error its own training would raise; a
    failure every count shares fails every cell of its config."""

    @pytest.fixture()
    def manifests(self, workspace, tmp_path):
        # Absolute WAV paths, so edited manifests can live in tmp_path.
        paths = {}
        for name in ("nat", "artif", "eval"):
            paths[name] = tmp_path / f"{name}.tsv"
            write_table(paths[name], MANIFEST_COLUMNS, [
                (e.utt_id, e.path, e.label, e.system_id)
                for e in parse_manifest(workspace[name])])
        return paths

    def test_count_above_a_class_frame_count_fails_only_its_cell(
            self, workspace, manifests, tmp_path, capsys):
        # One artificial file (about 25 frames) against three natural ones
        # (about 75): 32 fails the artificial model, 128 the natural one.
        artif = parse_manifest(manifests["artif"])
        write_table(manifests["artif"], MANIFEST_COLUMNS, [
            (e.utt_id, e.path, e.label, e.system_id) for e in artif][:1])
        errors = _check_grid_against_cells(
            manifests, workspace["config"], ["stat", "delta"], [2, 128, 32],
            "raw", tmp_path / "grid.tsv", capsys)
        expected = [("stat", 128, "nat", "natural-speech"),
                    ("stat", 32, "artif", "artificial-speech"),
                    ("delta", 128, "nat", "natural-speech"),
                    ("delta", 32, "artif", "artificial-speech")]
        assert len(errors) == len(expected)
        for line, (variant, count, manifest, name) in zip(errors, expected):
            where = re.escape(str(manifests[manifest]))
            assert re.fullmatch(
                rf"grid cell \({variant}, raw, {count}\) failed: {where}: "
                rf"{name} model: \d+ frames cannot support {count} components",
                line)
        _, rows = _data_rows(tmp_path / "grid.tsv")
        assert [r[3] == "failed" for r in rows] == [False, True, True] * 2

    def test_front_end_failure_fails_every_cell_of_its_config(
            self, workspace, manifests, tmp_path, capsys):
        evals = parse_manifest(manifests["eval"])
        garbage = tmp_path / "garbage.wav"
        garbage.write_bytes(b"not a wav file")
        rows = [(e.utt_id, e.path, e.label, e.system_id) for e in evals]
        rows[1] = (rows[1][0], str(garbage)) + rows[1][2:]
        write_table(manifests["eval"], MANIFEST_COLUMNS, rows)
        errors = _check_grid_against_cells(
            manifests, workspace["config"], ["stat", "z+delta"], [1, 4],
            "both", tmp_path / "grid.tsv", capsys)
        assert len(errors) == 8
        assert all(str(garbage) in line for line in errors)

    def test_degenerate_class_fails_every_cell_of_its_config(
            self, workspace, manifests, tmp_path, capsys):
        # Digital silence: every frame is the same. CMVN and deltas give
        # exact zeros; raw static cepstra give one row whose mean rounds.
        silent = make_wav_corpus(tmp_path / "silent", [
            (f"a{i}", "spoof", "vcX", tone(440.0, n_samples=4000, amplitude=0.0))
            for i in range(3)])
        manifests["artif"] = silent
        errors = _check_grid_against_cells(
            manifests, workspace["config"], ["stat", "delta"], [1, 2, 128],
            "both", tmp_path / "grid.tsv", capsys)
        assert len(errors) == 12
        # 128 exceeds the natural frames first; the rest are degenerate.
        assert [("all training frames are identical" in line)
                for line in errors] == [True, True, False] * 4


class TestDefaultFrontEnd:
    def test_train_score_eer_on_paper_length_utterances(self, tmp_path):
        # The paper's front end (no --config: 96 bins/octave over 9 octaves)
        # on 9 s utterances, just above its 8.83 s bin-0 window.
        rng = np.random.default_rng(90)
        speech = [burst_resonant_noise(rng, 9 * RATE) for _ in range(4)]
        nat = make_wav_corpus(tmp_path / "nat", [
            ("n0", "bonafide", "-", speech[0])])
        artif = make_wav_corpus(tmp_path / "artif", [
            ("a0", "spoof", "mu3", mulaw_distort(speech[1], 3))])
        evaluation = make_wav_corpus(tmp_path / "eval", [
            ("b0", "bonafide", "-", speech[2]),
            ("s0", "spoof", "mu3", mulaw_distort(speech[3], 3))])
        model, scores, eer = (tmp_path / n for n in
                              ("model.json", "scores.tsv", "eer.tsv"))
        assert main(["train", "--nat", str(nat), "--artif", str(artif),
                     "--gaussians", "2", "--out", str(model)]) == 0
        assert json.loads(model.read_text())["feature_config"]["cqt"][
            "bins_per_octave"] == 96
        assert main(["score", "--model", str(model), "--eval",
                     str(evaluation), "--out", str(scores)]) == 0
        _, rows = _data_rows(scores)
        llr = [float(r[3]) for r in rows]
        assert [r[0] for r in rows] == ["b0", "s0"]
        assert np.isfinite(llr).all()
        assert main(["eer", "--scores", str(scores), "--out", str(eer)]) == 0
        _, rows = _data_rows(eer)
        assert [(r[0], float(r[1])) for r in rows] == [
            ("mu3", 0.0), ("(average)", 0.0)]


class TestErrorHandling:
    @pytest.fixture
    def wav_reads(self, monkeypatch):
        """The calls of a ``features.read_wav`` that fails on every call,
        with the feature cache off, so that any WAV ``train`` reads shows."""
        read = []

        def no_read(*args):
            read.append(args)
            raise DataError("reading a WAV is not expected")

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setattr(features, "read_wav", no_read)
        return read

    def test_usage_error_exits_1(self, capsys):
        assert main(["train", "--nat", "x.tsv"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert main(["discombobulate"]) == 1

    def test_missing_manifest_exits_2(self, workspace, capsys):
        rc = main(["train", "--nat", "/nonexistent/m.tsv",
                   "--artif", str(workspace["artif"]),
                   "--config", str(workspace["config"]),
                   "--out", str(workspace["root"] / "never.json")])
        assert rc == 2
        assert not (workspace["root"] / "never.json").exists()

    def test_model_that_is_not_utf8_exits_2_naming_file(self, workspace,
                                                        tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 2, "metadata": "\xff"}')
        rc = main(["score", "--model", str(model),
                   "--eval", str(workspace["eval"]),
                   "--out", str(tmp_path / "scores.tsv")])
        assert rc == 2
        assert f"{model}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("score", "--eval"), ("eer", "--scores"), ("report", "--eer"),
        ("report", "--opinions"), ("train", "--config")])
    def test_input_that_is_not_utf8_exits_2_naming_file(
            self, workspace, trained_model, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"# a comment\nutt_id\t\xff\n")
        eer_table = tmp_path / "eer.tsv"
        write_table(eer_table, cli._EER_HEADER, [("sysA", 10.0, 0.5, 3, 2)])
        argv = {
            "score": ["--model", str(trained_model)],
            "eer": [],
            "report": ["--eer", str(eer_table)] if flag == "--opinions" else [],
            "train": ["--nat", str(workspace["nat"]),
                      "--artif", str(workspace["artif"])],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *argv, flag, str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if command == "train":
            assert err.startswith(f"spoofmeter: {bad}: not UTF-8 text")
        else:
            assert err == (f"spoofmeter: {bad}: line 2: "
                           "byte 0xff is not UTF-8\n")
        assert not out.exists()

    def test_partial_output_removed_on_failure(self, workspace, trained_model,
                                               tmp_path):
        # eval manifest referencing a missing wav: scoring must fail with 2
        # and leave no output file behind
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("utt_id\tpath\tlabel\tsystem_id\n"
                            "g\tghost.wav\tbonafide\t-\n")
        out = tmp_path / "scores.tsv"
        rc = main(["score", "--model", str(trained_model),
                   "--eval", str(manifest), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eer", "train"])
    def test_failed_command_keeps_an_earlier_output(self, workspace, tmp_path,
                                                    command):
        out = tmp_path / "keep.tsv"
        out.write_bytes(b"an earlier run's output\n")
        argv = {
            "eer": ["eer", "--scores", str(tmp_path / "missing.tsv")],
            "train": ["train", "--nat", str(workspace["nat"]),
                      "--artif", str(workspace["artif"]),
                      "--config", str(tmp_path / "typo.json")],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier run's output\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_grid_bad_gaussian_count_exits_1_before_training(
            self, workspace, tmp_path, capsys, monkeypatch):
        trained = []

        def no_training(*args):
            trained.append(args)
            raise DataError("training is not expected")

        # grid trains only in the worker pool.
        monkeypatch.setattr(workers, "ordered_map", no_training)
        out = tmp_path / "grid.tsv"
        # A count that is not a power of two, and repeated cells: a repeated
        # count, or two spellings that parse to the same variant.
        for variants, gaussians, flag in [
                ("stat", "2,4,3", "--gaussians"),
                ("stat", "2,4,2", "--gaussians"),
                ("z+stat,stat+z", "2", "--variants"),
                ("stat,delta,stat", "2", "--variants"),
                # An unknown block name, and a variant with no feature block.
                ("z+static", "2", "--variants"),
                ("z", "2", "--variants")]:
            rc = main(["grid", "--nat", str(workspace["nat"]),
                       "--artif", str(workspace["artif"]),
                       "--eval", str(workspace["eval"]),
                       "--variants", variants, "--gaussians", gaussians,
                       "--config", str(workspace["config"]),
                       "--out", str(out)])
            assert rc == 1
            assert trained == []
            assert flag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, variants, gaussians, message", [
        ("grid", "z+z", "2",
         "bad --variants value (duplicate component 'z' in 'z+z')"),
        ("grid", ",", "2", "--variants is empty"),
        ("grid", "stat", ",", "--gaussians is empty"),
        ("grid", "stat", "2, x",
         "bad --gaussians value (invalid literal for int() with base 10: "
         "' x')"),
        ("grid", "stat", "4, 4", "--gaussians repeats a count"),
        ("grid", "stat", "2,3", "bad --gaussians value (target_components "
         "must be a power of two >= 1, got 3)"),
        ("train", None, "3", "bad --gaussians value (target_components "
         "must be a power of two >= 1, got 3)"),
    ], ids=["duplicate-component", "no-variants", "no-counts", "not-a-count",
            "repeated-count", "grid-not-a-power", "train-not-a-power"])
    def test_usage_error_exits_1_with_its_message(
            self, workspace, tmp_path, capsys, monkeypatch, command,
            variants, gaussians, message):
        trained = []
        monkeypatch.setattr(cli, "train_detector",
                            lambda *args: trained.append(args))
        # grid trains only in the worker pool.
        monkeypatch.setattr(workers, "ordered_map",
                            lambda *args: trained.append(args))
        out = tmp_path / "out"
        argv = [command, "--nat", str(workspace["nat"]),
                "--artif", str(workspace["artif"]),
                "--gaussians", gaussians,
                "--config", str(workspace["config"]), "--out", str(out)]
        if command == "grid":
            argv += ["--eval", str(workspace["eval"]), "--variants", variants]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"spoofmeter: {command}: {message}\n"
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("broken, keep, error", [
        ("eval", "spoof", EmptyPopulationError),
        ("eval", "bonafide", NoSpoofSystemsError),
        ("eval", None, EmptyManifestError),
        ("nat", None, EmptyManifestError),
        ("artif", None, EmptyManifestError),
    ])
    def test_grid_bad_manifest_exits_2_before_training(
            self, workspace, tmp_path, monkeypatch, broken, keep, error):
        trained = []

        def no_training(*args):
            trained.append(args)
            raise DataError("training is not expected")

        # grid trains only in the worker pool.
        monkeypatch.setattr(workers, "ordered_map", no_training)
        manifests = {name: str(workspace[name])
                     for name in ("nat", "artif", "eval")}
        # The broken manifest keeps only the rows labelled ``keep``.
        manifests[broken] = str(tmp_path / "broken.tsv")
        write_table(manifests[broken], MANIFEST_COLUMNS, [
            (e.utt_id, e.path, e.label, e.system_id)
            for e in parse_manifest(workspace[broken]) if e.label == keep])
        out = tmp_path / "grid.tsv"
        argv = ["grid", "--nat", manifests["nat"],
                "--artif", manifests["artif"], "--eval", manifests["eval"],
                "--variants", "stat", "--gaussians", "2,4",
                "--config", str(workspace["config"]), "--out", str(out)]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(error, match=f"^{re.escape(manifests[broken])}: "):
            args.func(args)
        assert main(argv) == 2
        assert trained == []
        assert not out.exists()

    def test_train_bad_gaussian_count_exits_1_naming_flag(
            self, workspace, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]), "--gaussians", "3",
                   "--config", str(workspace["config"]), "--out", str(out)])
        assert rc == 1
        assert "--gaussians" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_frames_exits_3_naming_class_and_manifest(
            self, workspace, tmp_path, capsys):
        # Three 0.25 s files give about 75 frames, too few for 256 components.
        out = tmp_path / "model.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]), "--gaussians", "256",
                   "--config", str(workspace["config"]), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{workspace['nat']}: natural-speech model: " in err
        assert "cannot support 256 components" in err
        assert not out.exists()

    def test_bad_config_exits_2(self, workspace, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"gmm": {"target_components": 3}}')
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("config_text", [
        '{"cqcc": {"num_ceps": "29"}}',
        '{"gmm": {"target_components": "4"}}',
        '{"cqt": 5}',
        '{"cqcc": {"use_delta": "no"}}',
        '{"sample_rate": true}',
    ])
    def test_mistyped_config_exits_2_naming_file(self, workspace, tmp_path,
                                                 capsys, config_text):
        config = tmp_path / "typed.json"
        config.write_text(config_text)
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert str(config) in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("config_doc, message", [
        # At one point per bin, 4 octaves of 12 bins give an 8-point grid,
        # too short for the default 29 cepstral coefficients.
        ({"cqt": RUN_CONFIG["cqt"], "cqcc": {"resample_period": 1}},
         "uniform grid of 8 points"),
        # 5 to 8 kHz is less than an octave: one bin, nothing to resample.
        ({"cqt": {"bins_per_octave": 1, "f_min": 5000.0, "f_max": 8000.0},
          "cqcc": {"num_ceps": 1}},
         "CQT grid of 1 bin"),
    ], ids=["grid-points", "cqt-bins"])
    def test_too_short_uniform_grid_exits_2_naming_config_before_extraction(
            self, workspace, tmp_path, capsys, wav_reads, config_doc,
            message):
        config = tmp_path / "short_grid.json"
        config.write_text(json.dumps(config_doc))
        out = tmp_path / "m.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{config}: {message}" in capsys.readouterr().err
        assert wav_reads == []
        assert not out.exists()

    def test_wav_reads_sees_the_reads_of_a_valid_train(
            self, workspace, tmp_path, capsys, wav_reads):
        # The control for the run-config tests: their patch is on the path
        # ``train`` takes, so a config that passes reaches it.
        out = tmp_path / "m.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(workspace["config"]), "--out", str(out)])
        assert rc == 2
        assert "reading a WAV is not expected" in capsys.readouterr().err
        assert wav_reads != []
        assert not out.exists()

    @pytest.mark.parametrize("config_text, message", [
        ('{"cqt": {"f_min": 5e-324}}',
         "cqt: f_max / f_min = 8000.0 / 5e-324 overflows"),
        # A finite ratio, but a derived grid of about 2**1026 points.
        ('{"cqt": {"f_min": 1e-304}}',
         "cannot convert float infinity to integer"),
        ('{"cqt": {"f_min": 500.0,', "not valid JSON"),
        ('[{"sample_rate": 16000}]',
         "top level must be a JSON object, got list"),
        # The default hop of a hundredth of the rate rounds to 0.
        ('{"sample_rate": 40}', "sample_rate 40: hop must be >= 1"),
        ('{"cqcc": {"num_ceps": 0}}', "cqcc: num_ceps must be >= 1"),
        ('{"cqcc": {"resample_period": 0}}',
         "cqcc: resample_period must be >= 1"),
        ('{"gmm": {"em_iters_per_stage": 0}}',
         "gmm: em_iters_per_stage must be >= 1"),
    ], ids=["ratio-overflows", "grid-overflows", "not-json", "top-level-list",
            "zero-hop", "zero-num-ceps", "zero-resample-period",
            "zero-em-iters"])
    def test_bad_run_config_exits_2_naming_file_before_reading_a_wav(
            self, workspace, tmp_path, capsys, wav_reads, config_text,
            message):
        config = tmp_path / "ext.json"
        config.write_text(config_text)
        out = tmp_path / "m.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"spoofmeter: {config}: {message}" in capsys.readouterr().err
        assert wav_reads == []
        assert not out.exists()

    @pytest.mark.parametrize("config_text, message", [
        (f'{{"sample_rate": {10**400}}}',
         "sample_rate: int too large to convert to float"),
        (f'{{"cqt": {{"f_min": {10**400}}}}}', "cqt: f_min: float out of range"),
        (f'{{"cqt": {{"f_max": {10**400}}}}}', "cqt: f_max: float out of range"),
        # Bins past numpy's largest array, past any address space, and past
        # the memory of a typical machine (about 9e8 bins, 7.2 GB per float64
        # array): the bin-count cap stops each before its center frequencies
        # are allocated.
        (f'{{"cqt": {{"bins_per_octave": {2**63}}}}}', ""),
        (f'{{"cqt": {{"bins_per_octave": {2**50}}}}}', ""),
        ('{"cqt": {"bins_per_octave": 100000000}}',
         "cqt: grid of 900000000 bins exceeds the limit of 131072"),
        # 96,917 bins, within the cap, but a derived grid of 6.4e304 points
        # and a bin-0 window beyond int64.
        ('{"cqt": {"f_min": 1e-300}, "gmm": {"target_components": 2}}',
         "uniform grid of 6.39e+304 points exceeds the limit of 131072"),
        # About 1.8 GB per resampled 8.9 s spectrogram.
        ('{"cqcc": {"resample_period": 1000}}',
         "uniform grid of 2.54e+05 points exceeds the limit of 131072"),
        # 17 octaves of 1000 bins on a 65,536-point grid: only the bin-0
        # window, 3.0e9 samples, is out of bounds.
        ('{"cqt": {"bins_per_octave": 1000, "f_min": 0.00762939453125, '
         '"f_max": 1000.0}, "cqcc": {"resample_period": 1}}',
         "longest window of 3.02e+09 samples at 16000 Hz exceeds the limit "
         "of 2147483648"),
        # 2 ** (1 / 1e16) rounds to 1.0: Q would divide by zero.
        ('{"cqt": {"bins_per_octave": 10000000000000000, "f_min": 1000.0, '
         '"f_max": 1000.0000000001}, "cqcc": {"num_ceps": 1}}',
         "cqt: bins_per_octave 10000000000000000 leaves the bins no "
         "bandwidth"),
    ], ids=["sample-rate", "f-min", "f-max", "bins-2**63", "bins-2**50",
            "bins-1e8", "grid-6e304", "grid-period-1000", "window-3e9",
            "q-infinite"])
    def test_number_the_front_end_cannot_lay_out_exits_2_naming_file(
            self, tmp_path, capsys, wav_reads, config_text, message):
        config = tmp_path / "huge.json"
        config.write_text(config_text)
        out = tmp_path / "m.json"
        # The manifests do not exist: the config fails before either is read.
        rc = main(["train", "--nat", str(tmp_path / "nat.tsv"),
                   "--artif", str(tmp_path / "artif.tsv"),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spoofmeter: {config}: {message}")
        assert "0" * 100 not in err
        assert wav_reads == []
        assert not out.exists()

    def test_train_out_in_a_missing_directory_exits_2_before_reading(
            self, workspace, tmp_path, capsys, wav_reads):
        out = tmp_path / "no" / "such" / "m.json"
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(workspace["config"]), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"spoofmeter: --out {out}: no directory {out.parent}\n")
        assert wav_reads == []

    @pytest.mark.parametrize("where, message", [
        ("no/eer.tsv", "--out {out}: no directory {parent}"),
        ("scores.tsv/eer.tsv", "--out {out}: no directory {parent}"),
        (".", "--out {out} is a directory"),
    ], ids=["missing-directory", "file-as-directory", "directory"])
    def test_eer_out_that_cannot_be_written_exits_2_naming_it(
            self, tmp_path, capsys, where, message):
        scores = tmp_path / "scores.tsv"
        scores.write_text("utt_id\tlabel\tsystem_id\tllr\n"
                          "u0\tbonafide\t-\t0.5\n"
                          "u1\tspoof\tsysA\t-0.5\n")
        out = tmp_path / where
        assert main(["eer", "--scores", str(scores), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "spoofmeter: " + message.format(
            out=out, parent=out.parent) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.tsv"]

    def test_eer_reads_scores_with_a_byte_order_mark(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text("\ufeffutt_id\tlabel\tsystem_id\tllr\n"
                          "u0\tbonafide\t-\t0.5\n"
                          "u1\tspoof\tsysA\t-0.5\n", encoding="utf-8")
        out = tmp_path / "eer.tsv"
        assert main(["eer", "--scores", str(scores), "--out", str(out)]) == 0
        _, rows = _data_rows(out)
        assert [(r[0], float(r[1])) for r in rows] == [
            ("sysA", 0.0), ("(average)", 0.0)]

    @pytest.mark.parametrize("label", ["bonafide", "spoof"])
    def test_eer_without_one_population_exits_2_naming_file(
            self, tmp_path, capsys, label):
        scores = tmp_path / "scores.tsv"
        system = "-" if label == "bonafide" else "sysA"
        scores.write_text("utt_id\tlabel\tsystem_id\tllr\n"
                          f"u0\t{label}\t{system}\t0.5\n"
                          f"u1\t{label}\t{system}\t-0.5\n")
        out = tmp_path / "eer.tsv"
        assert main(["eer", "--scores", str(scores), "--out", str(out)]) == 2
        assert str(scores) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("train", "utt_id\tpath\tlabel\tsystem_id\n\tx.wav\tbonafide\t-\n",
         "line 2: empty utt_id"),
        ("score", '{"metadata": {}}', "missing format_version"),
        ("eer", "utt_id\tlabel\tsystem_id\tllr\nu0\tbonafide\t-\t0.5\n"
         "u1\tspoof\tsysA\tnan\n", "line 3: scores must be finite"),
    ], ids=["empty-utt-id", "no-format-version", "nan-score"])
    def test_bad_input_exits_2_with_its_message(
            self, workspace, tmp_path, capsys, command, text, message):
        bad = tmp_path / "bad"
        bad.write_text(text)
        argv = {
            "train": ["--nat", str(bad), "--artif", str(workspace["artif"])],
            "score": ["--model", str(bad), "--eval", str(workspace["eval"])],
            "eer": ["--scores", str(bad)],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"spoofmeter: {bad}: {message}\n"
        assert not out.exists()

    def test_report_eer_out_of_range_exits_2_naming_line(self, tmp_path,
                                                         capsys):
        table = tmp_path / "eer.tsv"
        table.write_text(
            "system_id\teer_percent\tthreshold\tn_bonafide\tn_spoof\n"
            "B01\t18.18\t0.0\t100\t100\n"
            "N10\t120\t0.0\t100\t100\n")
        out = tmp_path / "report.tsv"
        assert main(["report", "--eer", str(table), "--out", str(out)]) == 2
        assert f"{table}: line 3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config_text", [
        '{"gms": {}}',
        '{"gmm": {"convergence_tol": 1e-9}}',
        '{"gmm": {"variance_floor_factor": 1e-3}}',
    ])
    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys,
                                        config_text):
        config = tmp_path / "bad2.json"
        config.write_text(config_text)
        rc = main(["train", "--nat", str(workspace["nat"]),
                   "--artif", str(workspace["artif"]),
                   "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert str(config) in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_console_script_version():
    out = subprocess.run([sys.executable, "-m", "spoofmeter.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "spoofmeter" in out.stdout
