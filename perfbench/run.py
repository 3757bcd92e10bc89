"""gbflab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S [--trace 0|1]

Run from anywhere; the runner works in the checkout that holds it and imports
gbflab from its ``src/``.  One workload run prints the provenance, each metric
with its unit and sample count, and as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full result, with provenance and oracle details, goes to
``perfbench/out/results/<workload>-seed<N>-trace<T>.json`` (``--results``
chooses another directory; ``compare.py`` reads two of them).  ``--all`` runs
every workload, one child process at a time, and prints the named metrics of
each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy is imported here or in any child: the load is one
# single-threaded process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-dense", "campaign-large", "trials-small", "cli-oneshot")
MIN_PASSES = 2  # the second pass is the first repeat-determinism check
PROBES = 5  # fresh set-up processes per run; setup_s is their median
SPAN_CAP = 200_000  # the traced run stops adding passes beyond this many spans


def _median(values) -> float:
    return statistics.median(values)


def _quantile(values, q: int) -> float:
    """q-th decile (q in 1..9); a single value is its own decile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def probe_setup(name: str, seed: int, count: int, tiny: bool, speed) -> list[tuple[float, float, float]]:
    """Spawn ``count`` fresh processes that import gbflab and build the inputs,
    sampling ``speed`` before each; return (spawn-to-ready seconds, midpoint,
    in-process import seconds) for each."""
    argv = [sys.executable, str(HERE / "probe.py"), name, str(seed)] + (["tiny"] if tiny else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(count):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        line = proc.stdout.readline().decode()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        out.append((ready, t0 + 0.5 * ready, float(line.split()[1])))
    speed.sample()
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import gbflab
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gbflab": gbflab.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "thread_env": THREAD_ENV,
    }


def _metric(value, unit, samples=None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(name: str, rec, setup, setup_speed, passes, ends) -> tuple[dict, dict]:
    """(BENCHMARK.json end-to-end metrics, the workload's named metrics), every
    timing at reference speed (see speed.py).  ``ends`` holds the number of
    operations recorded at the end of each pass."""
    setup_s = [sec * setup_speed.scale(t) for sec, t, _ in setup]
    if name == "cli-oneshot":
        rss_mb = rec.child_maxrss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = rec.ops
    lat = [op.seconds * rec.speed.scale(op.t) for op in ops]
    work = sum(op.work for op in ops if op.ok)
    # Throughput of each pass: all its work over all its busy seconds, so a
    # cost that lands on a single call of a pass counts in full.  The run
    # reports the median pass, so one pass caught in a host stall does not
    # move it.
    per_pass = [sum(op.work for op in ops[i:j] if op.ok) / sum(lat[i:j])
                for i, j in zip([0] + ends[:-1], ends)]
    by_kind: dict[str, list[float]] = {}
    for op, sec in zip(ops, lat):
        by_kind.setdefault(op.kind, []).append(sec)
    typical = [_median(v) for v in by_kind.values()]
    common = {
        "setup_s": _metric(_median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    contract = dict(common)
    contract["work_per_s"] = _metric(_median(per_pass), "1/s", len(per_pass))
    contract["op_p50_ms"] = _metric(_median(typical) * 1e3, "ms", len(lat))

    named = dict(common)
    named["fail_ratio"] = _metric(rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)
    named["oracle_violations"] = _metric(len(rec.violations), "count")
    if name == "sweep-dense":
        named["solves_per_s"] = contract["work_per_s"]
    elif name == "campaign-large":
        named["channel_uses_per_s"] = contract["work_per_s"]
    elif name == "trials-small":
        named["calls_per_s"] = contract["work_per_s"]
        trials = [sec for kind, v in by_kind.items() if kind.startswith("trial.") for sec in v]
        small = by_kind.get("campaign_small", [0.0])
        named["trial_p50_us"] = _metric(_median(trials) * 1e6, "us", len(trials))
        named["trial_p90_us"] = _metric(_quantile(trials, 9) * 1e6, "us", len(trials))
        named["campaign_small_p50_us"] = _metric(_median(small) * 1e6, "us", len(small))
    elif name == "cli-oneshot":
        for sub in ("analyze", "sweep", "simulate", "verify", "classify", "import"):
            t = by_kind.get(f"cli.{sub}", [0.0])
            named[f"cli_{sub}_s"] = _metric(_median(t), "s", len(t))
    named["raw_pass_s"] = _metric(_median(passes), "s", len(passes))
    raw = [op.seconds for op in ops]
    named["raw_work_per_s"] = _metric(work / sum(raw), "1/s", len(raw))
    named["raw_op_p50_ms"] = _metric(_median(raw) * 1e3, "ms", len(raw))
    named["raw_setup_s"] = _metric(_median([sec for sec, _, _ in setup]), "s", len(setup))
    return contract, named


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 probes: int = PROBES) -> dict:
    """Run one workload in this process and return the full result."""
    # tracing and workloads import gbflab, so they load once src/ is on the path.
    import speed
    import tracing
    import workloads

    setup_speed = speed.SpeedReference("process")
    setup = probe_setup(name, seed, probes, tiny, setup_speed)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "provenance": provenance(seed)}
    if not trace:
        w = workloads.make(name, seed, tiny)
        rec = workloads.Recorder(speed=speed.SpeedReference(w.speed_kind))
        recs = [rec]
        passes, ends = [], []
        start = time.perf_counter()
        k = 0
        while k < MIN_PASSES or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            w.run_pass(k, rec)
            passes.append(time.perf_counter() - t0)
            ends.append(rec.attempted)
            k += 1
        rec.speed.sample()  # brackets the last operation
        result["metrics"], result["named_metrics"] = end_to_end(name, rec, setup, setup_speed,
                                                                passes, ends)
        result["speed"] = {"setup": setup_speed.summary(), "workload": rec.speed.summary()}
    else:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        tracer.install()
        try:
            w = workloads.make(name, seed, tiny)
        finally:
            tracer.uninstall()
        build_s = time.perf_counter() - t0
        plain = workloads.Recorder()
        rec = workloads.Recorder(on_op=tracer.begin_op)
        recs = [plain, rec]
        untraced, traced = [], []
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            w.traced_pass(k, plain)
            untraced.append(time.perf_counter() - t0)
            tracer.install()
            t0 = time.perf_counter()
            try:
                w.traced_pass(k, rec)
            finally:
                traced.append(time.perf_counter() - t0)
                tracer.uninstall()
            k += 1
            if time.perf_counter() - start >= seconds or len(tracer.spans) >= SPAN_CAP:
                break
        overhead = _median(traced) - _median(untraced)
        stats = tracing.layer_stats(tracer.spans)
        import_s = _median([i for _, _, i in setup])
        per_layer = tracing.per_layer_metrics(stats, rec, import_s, overhead)
        result["metrics"] = {k: _metric(v, u) for k, (v, u) in per_layer.items()}
        wall = build_s + sum(traced)
        result["layers"] = tracing.layer_table(stats, wall)
        result["trace_info"] = {"passes": k, "traced_wall_s": wall, "untraced_pass_s": untraced,
                                "traced_pass_s": traced, "overhead_s": overhead,
                                "spans": len(tracer.spans)}
        result["tracer"] = tracer
    violations = {}
    for r in recs:
        violations.update(r.violations)
    unexpected = sorted(set().union(*(set(r.unexpected_violations) for r in recs)))
    failures = [f for r in recs for f in r.failures]
    result["attempted"] = sum(r.attempted for r in recs)
    result["failed"] = sum(r.failed for r in recs)
    result["oracle_violations"] = violations
    result["known_violations"] = sorted(set(violations) - set(unexpected))
    result["failures"] = failures[:50]
    result["correct"] = result["failed"] == 0 and not unexpected
    if name == "cli-oneshot":
        result["provenance"]["cli_stdout_sha256"] = rec.stdout_sha256
    result["health"] = rec.health
    return result


def contract_line(result: dict) -> str:
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(result: dict) -> list[str]:
    lines = [f"# workload {result['workload']} seed={result['seed']} trace={result['trace']}"]
    for k, v in result["provenance"].items():
        lines.append(f"# provenance.{k}={json.dumps(v)}")
    for k, detail in result["oracle_violations"].items():
        tag = "known (ROADMAP item 1)" if k in result["known_violations"] else "UNEXPECTED"
        lines.append(f"# oracle_violation [{tag}] {k}: {detail}")
    for f in result["failures"]:
        lines.append(f"# failure {f}")
    if result["trace"]:
        t = result["trace_info"]
        lines.append(f"# tracing overhead: {t['overhead_s']:.4f} s per pass (median traced "
                     f"{_median(t['traced_pass_s']):.4f} s - median untraced "
                     f"{_median(t['untraced_pass_s']):.4f} s, {t['passes']} pairs)")
        lines.append(f"{'span':<48} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
        for row in result["layers"]:
            lines.append(f"{row['span']:<48} {row['calls']:>9} {row['busy_s']:>10.4f} "
                         f"{row['self_s']:>10.4f} {row['share_of_wall']:>7.1%}")
        for k, v in result["metrics"].items():
            lines.append(f"per_layer {k} = {v['value']:.6g} {v['unit']}")
    else:
        for label, metrics in (("metric", result["named_metrics"]), ("end_to_end", result["metrics"])):
            for k, v in metrics.items():
                n = f" (n={v['samples']})" if "samples" in v else ""
                lines.append(f"{label} {k} = {v['value']:.6g} {v['unit']}{n}")
    return lines


def save(result: dict, results_dir: Path) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans = results_dir / f"{stem}.spans.jsonl.gz"
        tracer.write(spans)
        result["trace_info"]["spans_file"] = spans.name
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_all(args) -> int:
    """Every workload, each in its own child process, one at a time."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", str(args.results)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        body = proc.stdout.splitlines()
        print("\n".join(line for line in body[:-1] if not line.startswith("# provenance")))
        if proc.returncode != 0 or not body or not json.loads(body[-1])["correct"]:
            print(f"# {name}: exit {proc.returncode}, not correct")
            ok = False
        print()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "out" / "results")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "gbflab" / "__init__.py").is_file():
        print(f"error: no gbflab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.results = args.results.resolve()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(result, args.results)
    print("\n".join(report(result)))
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
