"""Self-tests of the benchmark at tiny sizes: python3 -m pytest perfbench -q"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gbflab import simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


NAMED = {
    "sweep-dense": ["solves_per_s"],
    "campaign-large": ["channel_uses_per_s"],
    "trials-small": ["calls_per_s", "trial_p50_us", "trial_p90_us", "campaign_small_p50_us"],
    "cli-oneshot": [f"cli_{s}_s" for s in workloads.CLI_SUBCOMMANDS] + ["cli_import_s"],
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted(name):
    assert name in [w["name"] for w in SPEC["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True, probes=1)
        line = json.loads(run.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
        assert [v["unit"] for v in line["metrics"].values()] == [m["unit"] for m in SPEC[key]]
        if key == "end_to_end":
            assert all(v["value"] > 0 for v in line["metrics"].values())
            common = ["setup_s", "peak_rss_mb", "fail_ratio", "oracle_violations"]
            assert set(common + NAMED[name]) <= set(result["named_metrics"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(name):
    first = workloads.make(name, 11, tiny=True).describe()
    assert workloads.make(name, 11, tiny=True).describe() == first
    assert workloads.make(name, 12, tiny=True).describe() != first


def _campaign(mode):
    w = workloads.CampaignLarge(5, tiny=True)
    m, cfg, params, config, trials, seed = next(c for c in w.campaigns if c[0] == mode)
    return simulate.run_broadcast_campaign(config, params, trials, seed, mode=mode), params.power


def test_campaign_oracle_quiet_on_broadcast_and_fires_on_scaled_var1():
    summary, power = _campaign("broadcast")
    rec = workloads.Recorder()
    workloads.check_campaign("bc", summary, power, rec)
    assert rec.violations == {} and rec.failures == []

    rec = workloads.Recorder()
    workloads.check_campaign("bc", dataclasses.replace(summary, var1=summary.var1 * 1.5), power, rec)
    assert list(rec.violations) == ["bc.moments"]
    assert rec.unexpected_violations == ["bc.moments"]


def test_limited_mode_violation_is_counted_as_known():
    summary, power = _campaign("limited")
    rec = workloads.Recorder()
    workloads.check_campaign("lim", summary, power, rec)
    assert list(rec.violations) == ["lim.moments"]
    assert rec.unexpected_violations == []


class _UnitSpeed:
    """A host-speed reference that leaves every timing as measured."""

    def maybe_sample(self):
        pass

    def scale(self, t):
        return 1.0


def _work_per_s(slow_kind_s):
    """work_per_s over three passes of six kinds at 2 ms, one kind at ``slow_kind_s``."""
    rec = workloads.Recorder(speed=_UnitSpeed())
    ends = []
    for _ in range(3):
        for kind in range(6):
            rec.call(f"k{kind}", 1, time.sleep, slow_kind_s if kind == 5 else 0.002)
        ends.append(rec.attempted)
    contract, _ = run.end_to_end("sweep-dense", rec, [(0.1, 0.0, 0.1)], _UnitSpeed(), [1.0] * 3, ends)
    return contract["work_per_s"]["value"], contract["op_p50_ms"]["value"]


def test_work_per_s_sees_a_slowdown_of_one_kind():
    base, base_p50 = _work_per_s(0.002)
    slow, slow_p50 = _work_per_s(0.032)
    assert slow < 0.6 * base
    assert slow_p50 < 2 * base_p50  # the latency figure shows the middle kinds only


def test_repeat_mismatch_fails_the_operation():
    rec = workloads.Recorder()
    rec.call("op", 1, lambda: None)
    rec.repeat("k", "a")
    rec.call("op", 1, lambda: None)
    rec.repeat("k", "b")
    assert rec.failed == 1


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda change: list(zip(base, change))  # noqa: E731
    faster = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert compare.verdict(base, faster, pairs(faster), "lower", 0.1) == (1.0, "improved")
    slower = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert compare.verdict(base, slower, pairs(slower), "lower", 0.1)[1] == "REGRESSED"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(base, noisy, pairs(noisy), "lower", 0.1)[1] == "unresolved"
