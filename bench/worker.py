"""Timed phase of one benchmark run, in a process of its own.

Started by ``run.py`` with one argument, a JSON job file; writes its result
next to it. A fresh process per run keeps peak RSS per workload and keeps
one run's imports, caches and allocator state out of the next.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics


def timed_passes(run, seconds: float) -> list:
    """Untraced passes back to back until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = workloads.UNTRACED[run.workload](run)
        passes.append((time.perf_counter() - t0, result))
    return passes


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` is no use here: at exec a child inherits the high-water
    mark of the address space it replaced, and with vfork that is the
    parent's, which has just done the set-up.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    run = workloads.Run(workload=job["workload"],
                        spec=workloads.make_spec(job["workload"], job["smoke"]),
                        paths=job["paths"], seed=job["seed"],
                        workdir=Path(job["workdir"]))

    passes = timed_passes(run, job["seconds"])
    first = passes[0][1]
    problems = [p for _, r in passes for p in r.problems]
    if any(r.outputs != first.outputs for _, r in passes[1:]):
        problems.append("outputs differ between passes of one run")
    walls = [wall for wall, _ in passes]
    out = {
        "passes": len(passes),
        "attempted": sum(r.attempted for _, r in passes),
        "failed": sum(r.failed for _, r in passes),
        "wall_s": statistics.median(walls),
        "audio_s_per_s": statistics.median(r.audio_s / w for w, r in passes),
        "eer_avg_pct": first.eer_avg_pct,
        "peak_rss_mb": peak_rss_mb(),
    }

    if job["trace"]:
        setup_tr, timed_tr = Tracer("setup"), Tracer("timed")
        if run.workload in workloads.TRACED_SETUP:
            problems += workloads.TRACED_SETUP[run.workload](run, setup_tr)
        t0 = time.perf_counter()
        traced = workloads.TRACED[run.workload](run, timed_tr)
        traced_wall = time.perf_counter() - t0
        problems += traced.problems
        if traced.outputs != first.outputs:
            problems.append("traced pass outputs differ from the untraced pass")
        if traced.eer_avg_pct != first.eer_avg_pct:
            problems.append("traced EER differs from the untraced pass")
        out["per_layer"] = layer_metrics(setup_tr, timed_tr, traced_wall,
                                         out["wall_s"], first.cache_hit_ratio)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            setup_tr.dump(fh)
            timed_tr.dump(fh)

    out["problems"] = problems
    Path(job["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
