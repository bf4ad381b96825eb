#!/usr/bin/env python3
"""Benchmark for spoofmeter: one run of one workload.

    python3 bench/run.py --workload {paper-frontend,grid-em,score-batch} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from its ``src/``.
The run writes a seeded synthetic corpus (and, for score-batch, trains and
saves a model) several times and reports the median set-up time, then runs
the timed phase in a fresh process. Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. ``--smoke`` shrinks
every workload to a few seconds of work for the benchmark's own tests.

Scratch files live under ``.bench_work/`` and are removed on exit; traced
runs keep their spans in ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper-frontend", "grid-em", "score-batch")

# Set-up runs at least this many times, and until this much time has been
# spent on it; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

# Every run must finish well inside 180 s, set-up included.
RUN_DEADLINE_S = 170.0

# Output check on the attack-averaged EER of grid-em and score-batch. Over
# 42 seeds of grid-em and 27 of score-batch it ranged 6.3-33.3 % at the
# commit that added this benchmark, so it depends too much on the seed for
# a two-sided window. A detector at chance scores about 50 %; above this
# ceiling the run's outputs count as wrong.
EER_CEILING_PCT = 40.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(threads: int) -> dict:
    """What a result must be compared under: machine, libraries, BLAS, commit."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpu = cpu or platform.processor() or "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"cpu": cpu, "nproc": cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": threads, "commit": git_commit()}


def _terminate(signum, frame):
    # Unwind instead of dying at once, so the worker is killed and reaped
    # and the scratch directory removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "spoofmeter" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # BLAS reads its thread count once, when numpy loads: set it first.
    threads = cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spoofmeter
    from spoofmeter.detector import CACHE_ENV_VAR
    if not Path(spoofmeter.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported spoofmeter from {spoofmeter.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    # No run may read or warm a cache the caller set up; the worker inherits this.
    saved_cache = os.environ.pop(CACHE_ENV_VAR, None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return run(args, declared, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
        if saved_cache is not None:
            os.environ[CACHE_ENV_VAR] = saved_cache


def run(args, declared: dict, workdir: Path, threads: int) -> int:
    import workloads
    from corpus import corpus_sha256

    started = time.perf_counter()
    spec = workloads.make_spec(args.workload, args.smoke)
    setup_times, digests = [], set()
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        directory = workdir / f"setup{len(setup_times)}"
        t0 = time.perf_counter()
        paths = workloads.setup(args.workload, spec, directory, args.seed)
        setup_times.append(time.perf_counter() - t0)
        digests.add(corpus_sha256(directory / "corpus"))
        if len(setup_times) > 1:
            shutil.rmtree(workdir / f"setup{len(setup_times) - 2}")
    problems = [] if len(digests) == 1 else ["corpus differs between set-ups"]

    traces = ROOT / ".bench_traces"
    if args.trace:
        traces.mkdir(exist_ok=True)
    job = {"workload": args.workload, "smoke": args.smoke, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "paths": paths,
           "workdir": str(workdir / "timed"),
           "result": str(workdir / "result.json"),
           "spans": str(traces / f"{args.workload}-seed{args.seed}.jsonl")}
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
               PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(workdir))
    remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        print(f"bench: timed phase exceeded {remaining:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: timed phase exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    problems += result["problems"]
    problems += eer_problems(args, result["eer_avg_pct"])

    measured = {"setup_s": statistics.median(setup_times),
                "audio_s_per_s": result["audio_s_per_s"],
                "peak_rss_mb": result["peak_rss_mb"]}
    section = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else measured
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}

    print("environment " + json.dumps(environment(threads), sort_keys=True))
    print(f"corpus_sha256 {digests.pop()}")
    print(f"passes {result['passes']}  wall_s {result['wall_s']:.4f} s  "
          f"eer_avg_pct {result['eer_avg_pct']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def eer_problems(args, eer) -> list:
    """Check the run's attack-averaged EER, where the workload produces one."""
    if args.smoke or args.workload == "paper-frontend":
        return []
    if eer is None:
        return ["no EER was produced"]
    if eer > EER_CEILING_PCT:
        return [f"eer_avg_pct {eer:.3f} is above {EER_CEILING_PCT} "
                f"(chance level is 50)"]
    return []


if __name__ == "__main__":
    sys.exit(main())
