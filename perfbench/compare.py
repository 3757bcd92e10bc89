"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``--trace 0`` result files that ``run.py --results
DIR`` wrote.  For every workload and end-to-end metric it prints each side's
median and quartiles, the share of seed-matched pairs the change won (ties
count for neither side), and a verdict:

* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every change run beats every base run;
* ``REGRESSED``: the change's median is worse than the base's by more than
  the bound;
* ``improved``: the change won at least nine tenths of the pairs and the
  medians differ by more than the base's own quartile distance;
* ``same``: none of the above.

Bounds and directions of the BENCHMARK.json metrics come from that file; the
workload-specific named metrics use the bounds in ``NAMED`` below.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Named metrics printed by a workload run: (better, bound).  Counts of
# failures and oracle violations may not grow at all.
NAMED = {
    "fail_ratio": ("lower", 0.0),
    "oracle_violations": ("lower", 0.0),
    "solves_per_s": ("higher", 0.1),
    "channel_uses_per_s": ("higher", 0.1),
    "calls_per_s": ("higher", 0.1),
    "trial_p50_us": ("lower", 0.1),
    "trial_p90_us": ("lower", 0.15),
    "campaign_small_p50_us": ("lower", 0.1),
    **{f"cli_{sub}_s": ("lower", 0.1)
       for sub in ("analyze", "sweep", "simulate", "verify", "classify", "import")},
}


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {metric: value} from the trace-0 result files."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        values = {k: v["value"] for k, v in res["named_metrics"].items()}
        values.update({k: v["value"] for k, v in res["metrics"].items()})
        runs.setdefault(res["workload"], {})[res["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base: list[float], change: list[float], pairs, better: str, bound: float):
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = won / len(pairs) if pairs else 0.0
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    worse = -sign * (mc - mb)  # > 0 when the change is worse
    if max(spread(base), spread(change)) > bound:
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        if not all_better:
            return share, "unresolved"
    if worse > bound * abs(mb):
        return share, "REGRESSED"
    if share >= 0.9 and abs(mc - mb) > (q3 - q1):
        return share, "improved"
    return share, "same"


def compare(base_dir: Path, change_dir: Path) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({k: v for k, v in NAMED.items() if k not in rules})
    base, change = load(base_dir), load(change_dir)
    lines = [f"{'workload':<15} {'metric':<22} {'base q1/med/q3':>32} {'change q1/med/q3':>32} "
             f"{'won':>5} verdict"]
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        common = sorted(set(b_runs) & set(c_runs))
        if common:
            pair_keys = [(s, s) for s in common]
        else:
            pair_keys = list(zip(sorted(b_runs), sorted(c_runs)))
        metrics = [m for m in rules if m in next(iter(b_runs.values()))]
        for metric in metrics:
            better, bound = rules[metric]
            bv = [r[metric] for r in b_runs.values() if metric in r]
            cv = [r[metric] for r in c_runs.values() if metric in r]
            if not bv or not cv:
                continue
            pairs = [(b_runs[i][metric], c_runs[j][metric]) for i, j in pair_keys]
            share, word = verdict(bv, cv, pairs, better, bound)
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            lines.append(f"{workload:<15} {metric:<22} {fmt(bv):>32} {fmt(cv):>32} "
                         f"{share:>5.0%} {word}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
