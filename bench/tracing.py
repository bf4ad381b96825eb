"""In-memory spans recorded by the benchmark around calls into the program.

Nothing here reaches into ``src/``: the traced pass in ``workloads.py``
re-composes the pipeline from the package's public functions and wraps each
call in :meth:`Tracer.span`. Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer of each span name; a layer may collect several public functions.
LAYERS = (
    "audio_io.read_wav",
    "audio_io.resample",
    "cqt",
    "features.post_cqt",
    "features.cache_read",
    "features.cache_write",
    "gmm.em",
    "gmm.score",
    "model_io.load",
    "model_io.save",
    "metrics.eer",
)

# Groups whose share of the traced timed phase is reported.
SHARE_GROUPS = {
    "audio_io": ("audio_io.read_wav", "audio_io.resample"),
    "cqt": ("cqt",),
    "features.post_cqt": ("features.post_cqt",),
    "features.cache": ("features.cache_read", "features.cache_write"),
    "gmm.em": ("gmm.em",),
    "gmm.score": ("gmm.score",),
    "model_io": ("model_io.load", "model_io.save"),
    "metrics.eer": ("metrics.eer",),
}


class Tracer:
    """Spans (layer, start, end, parent index) plus per-layer work counters."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, layer: str):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def self_times(self) -> dict:
        """Seconds per layer, each span minus the time its children cover."""
        totals = defaultdict(float)
        for layer, start, end, _ in self.spans:
            totals[layer] += end - start
        for _, start, end, parent in self.spans:
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def dump(self, fh) -> None:
        for layer, start, end, parent in self.spans:
            fh.write(json.dumps({"phase": self.phase, "layer": layer,
                                 "start": start, "end": end,
                                 "parent": parent}) + "\n")


def _rate(numerator: float, denominator: float, scale: float) -> float:
    # A layer the workload never runs reports 0, not a division by zero.
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(setup: Tracer, timed: Tracer, traced_wall: float,
                  untraced_wall: float, cache_hit_ratio: float) -> dict:
    """Per-layer figures from the traced set-up and the traced timed pass.

    Rates use both tracers, so training in a workload's set-up still yields
    EM figures; shares and coverage use the timed pass alone.
    """
    times = defaultdict(float)
    counts = defaultdict(float)
    for tracer in (setup, timed):
        for layer, seconds in tracer.self_times().items():
            times[layer] += seconds
        for key, value in tracer.counts.items():
            counts[key] += value

    timed_self = timed.self_times()
    out = {
        "audio_io.read_wav.us_per_audio_s": _rate(
            times["audio_io.read_wav"], counts["read_wav.audio_s"], 1e6),
        "audio_io.resample.us_per_audio_s": _rate(
            times["audio_io.resample"], counts["resample.audio_s"], 1e6),
        "cqt.ms_per_audio_s": _rate(times["cqt"], counts["cqt.audio_s"], 1e3),
        "features.post_cqt.us_per_frame": _rate(
            times["features.post_cqt"], counts["post_cqt.frames"], 1e6),
        "features.cache_read.us_per_frame": _rate(
            times["features.cache_read"], counts["cache_read.frames"], 1e6),
        "features.cache_write.us_per_frame": _rate(
            times["features.cache_write"], counts["cache_write.frames"], 1e6),
        "detector.cache_hit_ratio": cache_hit_ratio,
        "gmm.em.ns_per_frame_comp": _rate(
            times["gmm.em"], counts["em.frame_comps"], 1e9),
        "gmm.em.iters": counts["em.iters"],
        "gmm.score.ns_per_frame_comp": _rate(
            times["gmm.score"], counts["score.frame_comps"], 1e9),
        "model_io.load_ms": _rate(times["model_io.load"], counts["load.calls"], 1e3),
        "model_io.save_ms": _rate(times["model_io.save"], counts["save.calls"], 1e3),
        "metrics.eer.us_per_trial": _rate(
            times["metrics.eer"], counts["eer.trials"], 1e6),
    }
    for group, layers in SHARE_GROUPS.items():
        out[f"{group}.share_pct"] = _rate(
            sum(timed_self[layer] for layer in layers), traced_wall, 100.0)
    out["trace.coverage_pct"] = _rate(sum(timed_self.values()), traced_wall, 100.0)
    out["trace.overhead_pct"] = _rate(traced_wall - untraced_wall, untraced_wall, 100.0)
    return out
