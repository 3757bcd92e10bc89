"""Spans around the calls into gbflab's layers, for the traced run only.

The tracer replaces, for the duration of a traced pass, the public names that
each caller module resolves at call time (``gbflab.simulate.sample_noise_pair``,
``gbflab.cli.sweep_rates``, ...) with wrappers that record a span: name,
parent span, operation id, start and end.  Nothing under ``src/`` changes;
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict

from gbflab import analysis, cli, simulate


def _named(name):
    return lambda args, kwargs: (name, 0.0)


def _noise_label(args, kwargs):
    spec = args[0]
    size = args[2] if len(args) > 2 else kwargs.get("size")
    per_sample = 1 if spec.is_degenerate else 2
    return "channel.sample_noise_pair", per_sample * (1 if size is None else size)


def _campaign_label(args, kwargs):
    config, trials = args[0], args[2]
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "broadcast")
    return f"simulate.run_broadcast_campaign.{mode}", float(trials * config.n)


def _main_label(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.main.{argv[0]}", 0.0


_ANALYSIS = {
    "solve_fixed_point": _named("analysis.solve_fixed_point"),
    "solve_gap": _named("analysis.solve_gap"),
    "achievable_rates": _named("analysis.achievable_rates"),
    "sweep_rates": _named("analysis.sweep_rates"),
    "verify_asymptotics": _named("analysis.verify_asymptotics"),
    "prelog_classify": _named("analysis.prelog_classify"),
}

# (module, attribute, label): the label maps a call's arguments to the span
# name and the work it carries (normals drawn, channel uses simulated).
PATCHES = [(analysis, attr, label) for attr, label in _ANALYSIS.items()] + [
    (simulate, "solve_fixed_point", _ANALYSIS["solve_fixed_point"]),
    (simulate, "make_generator", _named("channel.make_generator")),
    (simulate, "sample_noise_pair", _noise_label),
    (simulate, "lmmse_coefficient_schedule", _named("simulate.lmmse_coefficient_schedule")),
    (simulate, "run_broadcast_campaign", _campaign_label),
    (simulate, "run_broadcast_trial", _named("simulate.run_trial.broadcast")),
    (simulate, "run_interference_trial", _named("simulate.run_trial.interference")),
    (simulate, "run_limited_feedback_trial", _named("simulate.run_trial.limited")),
    (cli, "main", _main_label),
] + [
    (cli, attr, _ANALYSIS[attr])
    for attr in ("solve_fixed_point", "achievable_rates", "sweep_rates", "verify_asymptotics",
                 "prelog_classify")
] + [(cli, "run_broadcast_campaign", _campaign_label)]


class Tracer:
    """In-memory span recorder.  A span is [name, parent, op, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def begin_op(self, kind: str) -> None:
        self.op += 1

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name, work = label(args, kwargs)
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, work]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, attr, label in PATCHES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, op, start, end, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "op": op,
                                     "start": start - t0, "end": end - t0, "work": work}) + "\n")


def layer_stats(spans) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds, per-call durations and
    self times, and summed work.  Self time is the span's duration minus the
    time its direct children cover."""
    child = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "selfs": [], "work": 0.0}
    )
    for i, (name, _, _, start, end, work) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["durations"].append(end - start)
        s["selfs"].append(end - start - child[i])
        s["work"] += work
    return dict(stats)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(stats: dict, rec, import_s: float, overhead_s: float) -> dict[str, tuple]:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit).

    A layer that did not run on the workload reads 0 (its ``calls`` is 0)."""
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "selfs": [], "work": 0.0}

    def get(name):
        return stats.get(name, empty)

    m: dict[str, tuple] = {}
    for fn in ("solve_fixed_point", "solve_gap"):
        m[f"analysis.{fn}.calls"] = (get(f"analysis.{fn}")["calls"], "count")
    m["analysis.solve_fixed_point.busy_s"] = (get("analysis.solve_fixed_point")["busy_s"], "s")
    for fn in ("solve_fixed_point", "solve_gap", "achievable_rates", "prelog_classify"):
        m[f"analysis.{fn}.us_p50"] = (_p50(get(f"analysis.{fn}")["durations"]) * 1e6, "us")
    for fn in ("sweep_rates", "verify_asymptotics"):
        m[f"analysis.{fn}.busy_s"] = (get(f"analysis.{fn}")["busy_s"], "s")

    noise = get("channel.sample_noise_pair")
    m["channel.sample_noise_pair.calls"] = (noise["calls"], "count")
    m["channel.sample_noise_pair.normals"] = (noise["work"], "count")
    m["channel.sample_noise_pair.busy_s"] = (noise["busy_s"], "s")
    m["channel.sample_noise_pair.ns_per_normal"] = (
        noise["busy_s"] / noise["work"] * 1e9 if noise["work"] else 0.0, "ns")
    gen = get("channel.make_generator")
    m["channel.make_generator.calls"] = (gen["calls"], "count")
    m["channel.make_generator.us_p50"] = (_p50(gen["durations"]) * 1e6, "us")

    for mode in ("broadcast", "interference", "limited"):
        c = get(f"simulate.run_broadcast_campaign.{mode}")
        base = f"simulate.run_broadcast_campaign.{mode}"
        m[f"{base}.calls"] = (c["calls"], "count")
        m[f"{base}.busy_s"] = (c["busy_s"], "s")
        m[f"{base}.self_s"] = (c["self_s"], "s")
        m[f"{base}.self_ns_per_use"] = (
            c["self_s"] / c["work"] * 1e9 if c["work"] else 0.0, "ns")
    sched = get("simulate.lmmse_coefficient_schedule")
    m["simulate.lmmse_coefficient_schedule.calls"] = (sched["calls"], "count")
    m["simulate.lmmse_coefficient_schedule.us_p50"] = (_p50(sched["durations"]) * 1e6, "us")
    for mode in ("broadcast", "interference", "limited"):
        t = get(f"simulate.run_trial.{mode}")
        m[f"simulate.run_trial.{mode}.self_us_p50"] = (_p50(t["selfs"]) * 1e6, "us")
    for mode, h in rec.health.items():
        ratio = h["successes"] / h["blocks"] if h["blocks"] else 0.0
        m[f"simulate.{mode}.block_success_ratio"] = (ratio, "ratio")
        m[f"simulate.{mode}.max_abs_z"] = (h["max_abs_z"], "z")

    m["cli.import_s"] = (import_s, "s")
    for sub in ("analyze", "sweep", "simulate", "verify", "classify"):
        s = get(f"cli.main.{sub}")
        m[f"cli.main.{sub}.busy_ms"] = (_p50(s["durations"]) * 1e3, "ms")
        m[f"cli.main.{sub}.self_ms"] = (_p50(s["selfs"]) * 1e3, "ms")
        m[f"cli.main.{sub}.stdout_bytes"] = (rec.stdout_bytes.get(sub, 0), "bytes")

    m["bench.oracle_violations"] = (len(rec.violations), "count")
    m["bench.trace_overhead_s"] = (overhead_s, "s")
    return m


def layer_table(stats: dict, wall_s: float) -> list[dict]:
    """Rows of the traced-run report: calls, busy, self and share of wall time."""
    rows = []
    for name in sorted(stats):
        s = stats[name]
        rows.append({"span": name, "calls": s["calls"], "busy_s": s["busy_s"], "self_s": s["self_s"],
                     "share_of_wall": s["busy_s"] / wall_s if wall_s > 0 else 0.0})
    return rows
