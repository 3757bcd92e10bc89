"""Workload inputs, passes and oracle checks of the gbflab benchmark.

Each workload is built from the workload seed alone, and the package under
test receives only the generated inputs.  A pass runs the workload's fixed
list of operations once; the runner repeats passes for the measured time, so
every pass after the first is also a repeat-determinism check.

Calls into the package go through module attributes (``analysis.sweep_rates``
rather than a name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gbflab import analysis, channel, cli, simulate

ROOT = Path(__file__).resolve().parent.parent  # the checkout that holds perfbench
NAMES = ("sweep-dense", "campaign-large", "trials-small", "cli-oneshot")
MODES = ("broadcast", "interference", "limited")
CLI_SUBCOMMANDS = ("analyze", "sweep", "simulate", "verify", "classify")

# Oracle bounds (see README.md).
RECURSION_RESIDUAL_MAX = 1e-6
GAP_AGREEMENT_REL = 1e-12
ANTI_PRELOG_MIN = 1.9
CAMPAIGN_Z_MAX = 6.0
CAMPAIGN_POWER_REL = 0.01
CAMPAIGN_ERROR_RATE_MAX = 0.1


class Op(NamedTuple):
    """One timed operation: wall seconds, work units done, success, midpoint."""

    kind: str
    seconds: float
    work: float
    ok: bool
    t: float


class Recorder:
    """Tally of one run: operation latencies, failures, oracle violations,
    repeat digests and per-mode simulation health."""

    def __init__(self, on_op=None, speed=None):
        # Operations live in flat arrays: a run records up to ~60,000 of them,
        # and tuples would add megabytes to the peak RSS being measured.
        self._kinds: dict[str, int] = {}
        self._kind = array("I")
        self._seconds = array("d")
        self._work = array("d")
        self._ok = array("b")
        self._t = array("d")
        self.failures: list[str] = []
        self.violations: dict[str, str] = {}  # distinct check key -> detail
        self.known: set[str] = set()  # keys of violations that ROADMAP item 1 explains
        self.digests: dict[str, str] = {}
        self.health = {m: {"blocks": 0, "successes": 0, "max_abs_z": 0.0} for m in MODES}
        self.stdout_sha256: dict[str, str] = {}
        self.stdout_bytes: dict[str, int] = {}
        self.child_maxrss_kb = 0
        self.on_op = on_op
        self.speed = speed

    @property
    def ops(self) -> list[Op]:
        names = list(self._kinds)
        return [Op(names[k], sec, w, bool(ok), t) for k, sec, w, ok, t
                in zip(self._kind, self._seconds, self._work, self._ok, self._t)]

    @property
    def attempted(self) -> int:
        return len(self._ok)

    def call(self, kind: str, work: float, fn, *args, **kwargs):
        """Time one operation; an exception counts it as failed and returns None."""
        if self.on_op is not None:
            self.on_op(kind)
        if self.speed is not None:
            self.speed.maybe_sample()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self._record(kind, t0, work, False)
            self.fail(f"{kind}: {exc!r}")
            return None
        self._record(kind, t0, work, True)
        return out

    def _record(self, kind, t0, work, ok):
        t1 = time.perf_counter()
        self._kind.append(self._kinds.setdefault(kind, len(self._kinds)))
        self._seconds.append(t1 - t0)
        self._work.append(work)
        self._ok.append(ok)
        self._t.append(0.5 * (t0 + t1))

    def fail(self, message: str) -> None:
        """Mark the latest operation failed (non-finite field, repeat mismatch, ...)."""
        if self._ok:
            self._ok[-1] = False
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self._ok) - sum(self._ok)

    def check(self, key: str, ok: bool, detail: str, known: bool = False) -> None:
        if not ok:
            self.violations.setdefault(key, detail)
            if known:
                self.known.add(key)

    def repeat(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.fail(f"{key}: result differs on repeat within the run")

    def finite(self, key: str, arrays) -> bool:
        if all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays):
            return True
        self.fail(f"{key}: non-finite field")
        return False

    def add_blocks(self, mode: str, blocks: int, successes: int, max_abs_z: float = 0.0):
        h = self.health[mode]
        h["blocks"] += blocks
        h["successes"] += successes
        h["max_abs_z"] = max(h["max_abs_z"], max_abs_z)

    @property
    def unexpected_violations(self) -> list[str]:
        return sorted(set(self.violations) - self.known)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _rates(params: channel.ChannelParams, fraction: float = 0.7):
    fp = analysis.solve_fixed_point(params)
    rp = analysis.achievable_rates(params, fp.rho_star, gap=fp.gap)
    return fraction * rp.r1, fraction * rp.r2


# ---------------------------------------------------------------------------
# sweep-dense
# ---------------------------------------------------------------------------


class SweepDense:
    """Sweep and verify over P in [1e-3, 1e14] at 8 points per decade, for 4
    fixed noise configs and 2 drawn from the seed; every pass runs the same
    six.  Each config is its own operation kind, so a slowdown confined to one
    config moves its own latencies."""

    name = "sweep-dense"
    speed_kind = "mixed"
    FIXED = ((1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (1.0, 2.0, 0.3), (1.0, 1.0, 0.9))
    ANTI = (1.0, 1.0, -1.0)

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        seeded = [
            (10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(2)
        ]
        self.p_start, self.p_stop, self.ppd = (1e2, 1e8, 1) if tiny else (1e-3, 1e14, 8)
        self.configs = list(self.FIXED[:1] if tiny else self.FIXED) + seeded
        self.grid = analysis.power_grid(self.p_start, self.p_stop, self.ppd)

    def describe(self) -> dict:
        return {"grid": self.grid, "configs": self.configs}

    def _solve(self, noise):
        rows = analysis.sweep_rates(noise, self.p_start, self.p_stop, self.ppd)
        report = analysis.verify_asymptotics(noise, self.grid)
        return rows, report

    def run_pass(self, k: int, rec: Recorder) -> None:
        for cfg in self.configs:
            noise = channel.NoiseSpec(*cfg)
            out = rec.call(f"config{cfg}", 2 * len(self.grid), self._solve, noise)
            if out is not None:
                check_sweep(cfg, noise, *out, rec)

    traced_pass = run_pass


def check_sweep(cfg, noise, rows, report, rec: Recorder) -> None:
    key = f"sweep-dense{cfg}"
    srows = np.array(
        [[r.power, r.rho_star, r.gap, r.r1, r.r2, r.sum, r.prelog_ratio, r.scaled_gap] for r in rows]
    )
    vrows = np.array(
        [
            [r.power, r.lambda2, r.lambda2_err, r.lambda1_scaled, r.root_defect,
             r.root_defect_err, r.gap, r.gap_scaled]
            for r in report.rows
        ]
    )
    # lambda0_scaled is NaN by definition unless the noises are anti-correlated.
    lam0 = np.array([r.lambda0_scaled for r in report.rows])
    anti = noise.rho_z == -1.0
    if not rec.finite(key, [srows, vrows] + ([lam0] if anti else [])):
        return
    rec.repeat(key, _digest(srows, vrows, np.nan_to_num(lam0)) + repr(sorted(report.monotone.items())))
    worst_res = max(
        abs(abs(analysis.rho_recursion(r.rho_star, channel.ChannelParams(r.power, noise))) - r.rho_star)
        for r in rows
    )
    rec.check(f"{key}.recursion_residual", worst_res <= RECURSION_RESIDUAL_MAX,
              f"worst |abs(rho_recursion(rho*)) - rho*| = {worst_res:.3e}")
    gaps_s, gaps_v = srows[:, 2], vrows[:, 6]
    same_grid = np.array_equal(srows[:, 0], vrows[:, 0])
    rel = float(np.max(np.abs(gaps_s - gaps_v) / gaps_v)) if same_grid else math.inf
    rec.check(f"{key}.gap_agreement", rel <= GAP_AGREEMENT_REL,
              f"worst relative sweep/verify gap difference = {rel:.3e}")
    if tuple(cfg) == SweepDense.ANTI:
        last = rows[-1].prelog_ratio
        rec.check(f"{key}.prelog", last > ANTI_PRELOG_MIN, f"prelog_ratio at P_max = {last:.4f}")
        verdicts = report.monotone
        rec.check(f"{key}.monotone", all(v is True for v in verdicts.values()),
                  f"monotone verdicts = {verdicts}")


# ---------------------------------------------------------------------------
# campaign-large
# ---------------------------------------------------------------------------


class CampaignLarge:
    """Four vectorized campaigns at P = 100, n = 20 and 0.7 x the achievable
    rates: one-normal and two-normal broadcast, interference and limited
    feedback (receiver 1 fed back)."""

    name = "campaign-large"
    speed_kind = "numpy"
    SPECS = (
        ("broadcast", (1.0, 1.0, -1.0), 1_000_000),
        ("broadcast", (1.0, 2.0, 0.3), 1_000_000),
        ("interference", (1.0, 1.0, -1.0), 500_000),
        ("limited", (1.0, 1.0, -1.0), 500_000),
    )
    POWER = 100.0
    N = 20

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.campaigns = []
        for mode, cfg, trials in self.SPECS:
            params = channel.ChannelParams(self.POWER, channel.NoiseSpec(*cfg))
            rate1, rate2 = _rates(params)
            config = simulate.MessageConfig(n=self.N, rate1=rate1, rate2=rate2)
            size = 20_000 if tiny else trials
            self.campaigns.append((mode, cfg, params, config, size, rng.getrandbits(63)))

    def describe(self) -> dict:
        return {"campaigns": [(m, c, cf.rate1, cf.rate2, t, s) for m, c, _, cf, t, s in self.campaigns]}

    def run_pass(self, k: int, rec: Recorder) -> None:
        for mode, cfg, params, config, trials, seed in self.campaigns:
            summary = rec.call(
                f"campaign.{mode}{cfg}", trials * config.n, simulate.run_broadcast_campaign,
                config, params, trials, seed, mode=mode, fed_back_receiver=1,
            )
            if summary is not None:
                check_campaign(f"campaign-large.{mode}{cfg}", summary, params.power, rec)

    traced_pass = run_pass


def check_campaign(key: str, summary, power: float, rec: Recorder, bounds: bool = True) -> None:
    """Finite fields and repeat digest always; with ``bounds``, the z-score,
    power and error-rate oracles.  The limited-mode z-score violation is the
    known defect of ROADMAP item 1."""
    fields = [summary.mean1, summary.mean2, summary.var1, summary.var2, summary.corr,
              summary.power_per_step, [summary.mean_power, summary.error_rate]]
    if not rec.finite(key, fields):
        return
    z = summary.moment_z_scores()
    zmax = max(float(np.max(np.abs(v))) for v in z.values())
    rec.add_blocks(summary.mode, summary.trials, summary.trials - summary.errors, zmax)
    rec.repeat(key, _digest(*fields))
    if not bounds:
        return
    rec.check(f"{key}.moments", zmax <= CAMPAIGN_Z_MAX, f"max |z| = {zmax:.4g}",
              known=summary.mode == "limited")
    dev = abs(summary.mean_power - power) / power
    rec.check(f"{key}.power", dev <= CAMPAIGN_POWER_REL, f"mean power off by {dev:.3%}")
    rec.check(f"{key}.error_rate", summary.error_rate <= CAMPAIGN_ERROR_RATE_MAX,
              f"error_rate = {summary.error_rate:.4g}")


# ---------------------------------------------------------------------------
# trials-small
# ---------------------------------------------------------------------------


class TrialsSmall:
    """Scalar trials in all three modes on shared streams, plus minimum-size
    campaigns that each build their own schedule: the latency view of the
    simulate/channel layers."""

    name = "trials-small"
    speed_kind = "python"
    STREAMS = 1500
    CAMPAIGNS = 300
    CAMPAIGN_TRIALS = 100

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.params = channel.ChannelParams(100.0, channel.NoiseSpec(1.0, 1.0, -1.0))
        rate1, rate2 = _rates(self.params)
        self.config = simulate.MessageConfig(n=20, rate1=rate1, rate2=rate2)
        self.schedule = simulate.lmmse_coefficient_schedule(
            self.params, self.config.n,
            simulate.message_point_variance(self.config.levels1),
            simulate.message_point_variance(self.config.levels2),
        )
        self.master = rng.getrandbits(63)
        n_streams, n_campaigns = (20, 3) if tiny else (self.STREAMS, self.CAMPAIGNS)
        self.streams = rng.sample(range(1 << 62), n_streams)
        self.campaign_seeds = [rng.getrandbits(63) for _ in range(n_campaigns)]

    def describe(self) -> dict:
        return {"rates": (self.config.rate1, self.config.rate2), "master": self.master,
                "streams": self.streams, "campaign_seeds": self.campaign_seeds}

    def run_pass(self, k: int, rec: Recorder) -> None:
        cfg, params, sched = self.config, self.params, self.schedule
        digest = hashlib.sha256()
        for sid in self.streams:
            spec = channel.RngSpec(self.master, sid)
            b = rec.call("trial.broadcast", 1, simulate.run_broadcast_trial, cfg, params, spec,
                         schedule=sched)
            i = rec.call("trial.interference", 1, simulate.run_interference_trial, cfg, params, spec,
                         schedule=sched)
            lim = rec.call("trial.limited", 1, simulate.run_limited_feedback_trial, cfg, params, spec,
                           fed_back_receiver=1, schedule=sched)
            if b is None or i is None or lim is None:
                continue
            for mode, t in zip(MODES, (b, i, lim)):
                if not rec.finite(f"trials-small.{mode}[{sid}]", [t.inputs, t.eps1, t.eps2]):
                    break
                rec.add_blocks(mode, 1, int(t.success))
                digest.update(t.inputs.tobytes() + t.eps1.tobytes() + t.eps2.tobytes())
                digest.update(f"{t.message1},{t.message2},{t.decoded1},{t.decoded2};".encode())
            b_dec = (b.decoded1, b.decoded2)
            rec.check(f"trials-small.interference[{sid}].inputs", np.array_equal(i.inputs, b.inputs),
                      "interference per-use inputs differ from broadcast")
            rec.check(f"trials-small.interference[{sid}].decodes", (i.decoded1, i.decoded2) == b_dec,
                      "interference decodes differ from broadcast")
            rec.check(f"trials-small.limited[{sid}].decodes", (lim.decoded1, lim.decoded2) == b_dec,
                      "limited-feedback decodes differ from broadcast")
        for seed in self.campaign_seeds:
            s = rec.call("campaign_small", 1, simulate.run_broadcast_campaign,
                         cfg, params, self.CAMPAIGN_TRIALS, seed)
            if s is not None:
                check_campaign(f"trials-small.campaign[{seed}]", s, params.power, rec, bounds=False)
                digest.update(rec.digests.get(f"trials-small.campaign[{seed}]", "").encode())
        rec.repeat("trials-small.pass", digest.hexdigest())

    traced_pass = run_pass


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------


class CliOneshot:
    """Each subcommand at its defaults as a fresh process, plus a bare
    ``import gbflab``, in a seeded order per pass.  The traced pass calls
    ``cli.main`` in-process instead, which is where the per-layer split of a
    subcommand's time can be seen."""

    name = "cli-oneshot"
    speed_kind = "process"
    MATRIX = "1 -1\n-1 1\n"

    def __init__(self, seed: int, tiny: bool = False):
        # A fixed path relative to the checkout: classify echoes it, so a
        # fresh temp dir per run would change the stdout bytes and their sha256.
        self.matrix = "perfbench/out/cli-oneshot/corr.txt"
        path = ROOT / self.matrix
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.MATRIX, encoding="utf-8")
        self.stderr_path = path.parent / "stderr.txt"
        self.rng_seed = seed
        self.commands = [(sub, [sub, self.matrix] if sub == "classify" else [sub])
                         for sub in CLI_SUBCOMMANDS]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def describe(self) -> dict:
        return {"matrix": self.MATRIX, "orders": [self.order(k) for k in range(4)]}

    def order(self, k: int) -> list[str]:
        names = list(CLI_SUBCOMMANDS) + ["import"]
        random.Random(f"{self.rng_seed}:{k}").shuffle(names)
        return names

    def _spawn(self, argv: list[str]):
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def run_pass(self, k: int, rec: Recorder) -> None:
        argvs = {sub: [sys.executable, "-m", "gbflab.cli", *args] for sub, args in self.commands}
        argvs["import"] = [sys.executable, "-c", "import gbflab"]
        for name in self.order(k):
            res = rec.call(f"cli.{name}", 1, self._spawn, argvs[name])
            if res is None:
                continue
            code, out, maxrss_kb = res
            rec.child_maxrss_kb = max(rec.child_maxrss_kb, maxrss_kb)
            if code != 0:
                err = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
                rec.fail(f"cli.{name}: exit status {code}: {err}")
                continue
            self._check_output(name, out, rec)

    def traced_pass(self, k: int, rec: Recorder) -> None:
        for sub, args in self.commands:
            res = rec.call(f"cli.{sub}", 1, self._main_inprocess, args)
            if res is None:
                continue
            code, out = res
            if code != 0:
                rec.fail(f"cli.{sub}: in-process exit status {code}")
                continue
            self._check_output(sub, out, rec)

    def _main_inprocess(self, args: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        return code, buf.getvalue().encode("utf-8")

    def _check_output(self, name: str, out: bytes, rec: Recorder) -> None:
        sha = hashlib.sha256(out).hexdigest()
        rec.repeat(f"cli.{name}.stdout", sha)
        if name == "import":
            return
        rec.stdout_sha256[name] = sha
        rec.stdout_bytes[name] = len(out)
        text = out.decode("utf-8", errors="replace")
        if name == "simulate":
            self._simulate_health(text, rec)
        if name == "verify":
            rec.check("cli-oneshot.verify", "=FAIL" not in text, "verify printed a FAIL verdict")
        if name == "classify":
            rec.check("cli-oneshot.classify", "class=Two" in text.splitlines(),
                      "classify did not print class=Two")


    @staticmethod
    def _simulate_health(text: str, rec: Recorder) -> None:
        """Block counts and worst |z| from the simulate table at its defaults."""
        meta = dict(line[len("# summary."):].split("=", 1) for line in text.splitlines()
                    if line.startswith("# summary."))
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and not line.startswith("step,")]
        zmax = max(abs(float(v)) for row in rows for v in row[9:14])
        trials, errors = int(meta["trials"]), int(meta["errors"])
        rec.add_blocks(meta["mode"], trials, trials - errors, zmax)


def make(name: str, seed: int, tiny: bool = False):
    """Build the named workload's inputs from ``seed``."""
    if name == "sweep-dense":
        return SweepDense(seed, tiny)
    if name == "campaign-large":
        return CampaignLarge(seed, tiny)
    if name == "trials-small":
        return TrialsSmall(seed, tiny)
    if name == "cli-oneshot":
        return CliOneshot(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
