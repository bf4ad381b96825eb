"""The benchmark's own tests: run with ``python3 -m pytest bench -q``.

The smoke runs take every workload through set-up, the untraced timed loop,
the traced re-composition and all output checks in a few seconds each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from corpus import Utterance, corpus_sha256, write_corpus  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
    if workload == "paper-frontend":
        # Two of three utterances are shorter than the bin-0 window: the
        # known short-signal defect must show as failed operations.
        assert 3 * result["failed"] == 2 * result["attempted"]
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("grid-em", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corpus_depends_only_on_seed(tmp_path):
    parts = {"a": (Utterance("x", "-", 0.05, 16000), Utterance("y", "mu3", 0.05, 8000))}
    write_corpus(tmp_path / "one", 5, parts)
    write_corpus(tmp_path / "two", 5, parts)
    write_corpus(tmp_path / "other", 6, parts)
    assert corpus_sha256(tmp_path / "one") == corpus_sha256(tmp_path / "two")
    assert corpus_sha256(tmp_path / "one") != corpus_sha256(tmp_path / "other")


def test_self_time_excludes_child_spans():
    tr = Tracer("test")
    with tr.span(LAYERS[0]):
        with tr.span(LAYERS[1]):
            pass
    times = tr.self_times()
    (_, start0, end0, _), (_, start1, end1, parent) = tr.spans
    assert parent == 0
    assert times[LAYERS[0]] == pytest.approx((end0 - start0) - (end1 - start1))
    assert times[LAYERS[1]] == pytest.approx(end1 - start1)


def test_benchmark_json_follows_its_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
