"""Command-line front end.

Subcommands: analyze (single-power fixed point and rates), sweep (power grid
table), simulate (Monte Carlo campaign with empirical-vs-analytic moment
table), verify (high-power limit diagnostics), classify (K-receiver pre-log
classification from a correlation-matrix file).

Output conventions, shared by every subcommand:
  * tables are CSV with '.' decimal separator and 12-significant-digit
    scientific notation; lines starting with '#' are metadata and are ignored
    when re-parsing;
  * every effective option value is echoed as '# option.<name>=<value>';
  * single records are emitted as 'key=value' lines;
  * identical invocations produce byte-identical output.

Exit statuses: 0 success, 2 input/validation error, 3 Undefined
classification, 4 internal numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis import (
    PrelogValue,
    achievable_rates,
    power_grid,
    prelog_classify,
    solve_fixed_point,
    sweep_rates,
    verify_asymptotics,
)
from .channel import ChannelParams, NoiseSpec
from .errors import NumericalIntegrityError, ParameterError
from .simulate import MessageConfig, run_broadcast_campaign

_DEFAULTS = {
    "analyze": {
        "power": 100.0,
        "sigma1": 1.0,
        "sigma2": 1.0,
        "rhoz": -1.0,
        "tol": 1e-10,
        "out": None,
    },
    "sweep": {
        "p_start": 1e2,
        "p_stop": 1e10,
        "points_per_decade": 4,
        "sigma1": 1.0,
        "sigma2": 1.0,
        "rhoz": -1.0,
        "tol": 1e-10,
        "delta": 0.2,
        "out": None,
    },
    "simulate": {
        "power": 100.0,
        "sigma1": 1.0,
        "sigma2": 1.0,
        "rhoz": -1.0,
        "tol": 1e-10,
        "trials": 10_000,
        "block_length": 20,
        "rate1": None,
        "rate2": None,
        "rate_fraction": 0.7,
        "mode": "broadcast",
        "fed_back_receiver": 1,
        "fixpoint_init": False,
        "seed": 20240901,
        "out": None,
    },
    "verify": {
        "p_start": 1e2,
        "p_stop": 1e10,
        "points_per_decade": 4,
        "sigma1": 1.0,
        "sigma2": 1.0,
        "rhoz": -1.0,
        "delta": 0.2,
        "eps": 0.1,
        "out": None,
    },
    "classify": {"matrix": None, "out": None},
}


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _option_header(command: str, opts: dict) -> list[str]:
    lines = [f"# gbflab {command}"]
    for key in sorted(opts):
        lines.append(f"# option.{key}={_fmt(opts[key])}")
    return lines


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_row(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _noise_from(opts: dict) -> NoiseSpec:
    return NoiseSpec(sigma1=opts["sigma1"], sigma2=opts["sigma2"], rho_z=opts["rhoz"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(opts: dict) -> tuple[list[str], int]:
    params = ChannelParams(power=opts["power"], noise=_noise_from(opts))
    fp = solve_fixed_point(params, opts["tol"])
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    lines = _option_header("analyze", opts)
    for key, value in [
        ("P", params.power),
        ("sigma1", params.noise.sigma1),
        ("sigma2", params.noise.sigma2),
        ("rhoz", params.noise.rho_z),
        ("rho_star", fp.rho_star),
        ("g", fp.gap),
        ("cubic_residual", fp.residual),
        ("recursion_residual", fp.recursion_residual),
        ("R1", rp.r1),
        ("R2", rp.r2),
        ("sum", rp.sum),
        ("prelog_ratio", rp.prelog_ratio),
    ]:
        lines.append(f"{key}={_fmt(value)}")
    return lines, 0


def _cmd_sweep(opts: dict) -> tuple[list[str], int]:
    rows = sweep_rates(
        _noise_from(opts),
        opts["p_start"],
        opts["p_stop"],
        opts["points_per_decade"],
        delta=opts["delta"],
        tol=opts["tol"],
    )
    lines = _option_header("sweep", opts)
    lines.append("P,rho_star,g,R1,R2,sum,prelog_ratio,scaled_gap")
    for r in rows:
        lines.append(
            _csv_row([r.power, r.rho_star, r.gap, r.r1, r.r2, r.sum, r.prelog_ratio, r.scaled_gap])
        )
    return lines, 0


def _cmd_simulate(opts: dict) -> tuple[list[str], int]:
    params = ChannelParams(power=opts["power"], noise=_noise_from(opts))
    rate1, rate2 = opts["rate1"], opts["rate2"]
    if rate1 is None or rate2 is None:
        fraction = opts["rate_fraction"]
        if not (0.0 < fraction < 1.0):
            raise ParameterError(f"rate_fraction must lie in (0, 1), got {fraction}")
        fp = solve_fixed_point(params, opts["tol"])
        rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
        if rate1 is None:
            rate1 = fraction * rp.r1
        if rate2 is None:
            rate2 = fraction * rp.r2
    config = MessageConfig(n=opts["block_length"], rate1=rate1, rate2=rate2)
    summary = run_broadcast_campaign(
        config,
        params,
        opts["trials"],
        opts["seed"],
        mode=opts["mode"],
        fed_back_receiver=opts["fed_back_receiver"],
        fixpoint_init=opts["fixpoint_init"],
    )
    lines = _option_header("simulate", opts)
    summary_fields = [
        ("mode", summary.mode),
        ("trials", summary.trials),
        ("block_length", summary.n),
        ("rate1", rate1),
        ("rate2", rate2),
        ("levels1", config.levels1),
        ("levels2", config.levels2),
        ("seed", summary.master_seed),
        ("errors", summary.errors),
        ("error_rate", summary.error_rate),
        ("ci_low", summary.ci_low),
        ("ci_high", summary.ci_high),
        ("confidence", summary.confidence),
        ("mean_power", summary.mean_power),
    ]
    for key, value in summary_fields:
        lines.append(f"# summary.{key}={_fmt(value)}")
    if summary.tx1_mean_power is not None:
        lines.append(f"# summary.tx1_mean_power={_fmt(summary.tx1_mean_power)}")
        lines.append(f"# summary.tx2_mean_power={_fmt(summary.tx2_mean_power)}")
    z = summary.moment_z_scores()
    lines.append(
        "step,mean1,mean2,var1,var2,corr,alpha1,alpha2,rho,"
        "z_mean1,z_mean2,z_var1,z_var2,z_corr"
    )
    for i, k in enumerate(summary.steps):
        lines.append(
            _csv_row(
                [
                    int(k),
                    summary.mean1[i],
                    summary.mean2[i],
                    summary.var1[i],
                    summary.var2[i],
                    summary.corr[i],
                    summary.alpha1[i],
                    summary.alpha2[i],
                    summary.rho[i],
                    z["mean1"][i],
                    z["mean2"][i],
                    z["var1"][i],
                    z["var2"][i],
                    z["corr"][i],
                ]
            )
        )
    return lines, 0


def _cmd_verify(opts: dict) -> tuple[list[str], int]:
    grid = power_grid(opts["p_start"], opts["p_stop"], opts["points_per_decade"])
    noise = _noise_from(opts)
    report = verify_asymptotics(noise, grid, delta=opts["delta"], eps=opts["eps"])
    s1, s2 = noise.sigma1, noise.sigma2
    half_noise_sum = 0.5 * (s1 * s1 + s2 * s2)
    lines = _option_header("verify", opts)
    lines.append(
        "P,lambda2,lambda2_err,lambda1_scaled,root_defect,root_defect_err,"
        "lambda0_scaled,gap,gap_scaled"
    )
    for r in report.rows:
        lines.append(
            _csv_row(
                [
                    r.power,
                    r.lambda2,
                    r.lambda2_err,
                    r.lambda1_scaled,
                    r.root_defect,
                    r.root_defect_err,
                    r.lambda0_scaled,
                    r.gap,
                    r.gap_scaled,
                ]
            )
        )
    last = report.rows[-1]
    checks: list[tuple[str, bool | None]] = [
        ("lambda2_to_two", last.lambda2_err < 1e-3),
        ("root_defect_to_half_noise_sum", last.root_defect_err < 0.01 * half_noise_sum),
        ("lambda2_err_decreasing", report.monotone["lambda2_err"]),
        ("lambda1_scaled_vanishing", report.monotone["lambda1_scaled_mag"]),
        ("root_defect_err_decreasing", report.monotone["root_defect_err"]),
        ("lambda0_scaled_vanishing", report.monotone["lambda0_scaled_mag"]),
        ("gap_scaled_vanishing", report.monotone["gap_scaled"]),
    ]
    for name, verdict in checks:
        status = "NA" if verdict is None else ("PASS" if verdict else "FAIL")
        lines.append(f"# verdict.{name}={status}")
    return lines, 0


def _cmd_classify(opts: dict) -> tuple[list[str], int]:
    path = opts["matrix"]
    try:
        matrix = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ParameterError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"malformed matrix file {path!r}: {exc}") from exc
    result = prelog_classify(matrix)
    lines = _option_header("classify", opts)
    lines.append(f"class={result.value.value}")
    lines.append(f"reason={result.reason}")
    return lines, 3 if result.value is PrelogValue.UNDEFINED else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbflab",
        description="feedback coding laboratory for two-user Gaussian channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_channel(p, with_power: bool) -> None:
        if with_power:
            p.add_argument("--power", type=float, help="average block power P")
        p.add_argument("--sigma1", type=float, help="noise std. dev. at receiver 1")
        p.add_argument("--sigma2", type=float, help="noise std. dev. at receiver 2")
        p.add_argument("--rhoz", type=float, help="noise correlation coefficient")

    def add_grid(p) -> None:
        p.add_argument("--p-start", dest="p_start", type=float, help="first grid power")
        p.add_argument("--p-stop", dest="p_stop", type=float, help="last grid power")
        p.add_argument(
            "--points-per-decade", dest="points_per_decade", type=int, help="grid density"
        )

    def add_io(p) -> None:
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--config", help="JSON file of option defaults; flags override it")

    p = sub.add_parser("analyze", help="fixed point and rates at one power")
    add_common_channel(p, with_power=True)
    p.add_argument("--tol", type=float, help="cubic residual tolerance")
    add_io(p)

    p = sub.add_parser("sweep", help="rates and gap over a power grid")
    add_grid(p)
    add_common_channel(p, with_power=False)
    p.add_argument("--tol", type=float, help="cubic residual tolerance")
    p.add_argument("--delta", type=float, help="exponent in scaled_gap = P^(1-delta) * g")
    add_io(p)

    p = sub.add_parser("simulate", help="Monte Carlo campaign")
    add_common_channel(p, with_power=True)
    p.add_argument("--tol", type=float, help="cubic residual tolerance")
    p.add_argument("--trials", type=int, help="number of independent blocks")
    p.add_argument("--block-length", dest="block_length", type=int, help="channel uses per block")
    p.add_argument("--rate1", type=float, help="bits per use for user 1")
    p.add_argument("--rate2", type=float, help="bits per use for user 2")
    p.add_argument(
        "--rate-fraction",
        dest="rate_fraction",
        type=float,
        help="set unspecified rates to this fraction of the achievable rates at the fixed point",
    )
    p.add_argument("--mode", choices=["broadcast", "interference", "limited"])
    p.add_argument(
        "--fed-back-receiver", dest="fed_back_receiver", type=int, choices=[1, 2],
        help="receiver whose outputs are fed back in limited mode",
    )
    p.add_argument(
        "--fixpoint-init", dest="fixpoint_init", action="store_true", default=argparse.SUPPRESS,
        help="derive the coefficient schedule from a correlation pinned at the fixed point",
    )
    p.add_argument("--seed", type=int, help="master seed")
    add_io(p)

    p = sub.add_parser("verify", help="high-power limit diagnostics")
    add_grid(p)
    add_common_channel(p, with_power=False)
    p.add_argument("--delta", type=float, help="gap decay exponent probe")
    p.add_argument("--eps", type=float, help="slack exponent, 0 < eps < delta")
    add_io(p)

    p = sub.add_parser("classify", help="K-receiver pre-log class from a correlation matrix")
    p.add_argument("matrix", help="text file, one matrix row per line, whitespace separated")
    add_io(p)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """``value`` as ``action``'s flag would parse it, or ParameterError when
    its JSON type or value is one the flag would not accept."""
    expected = bool if action.nargs == 0 else (action.type or str)
    if expected is float and type(value) is int:
        value = float(value)
    if type(value) is not expected:
        raise ParameterError(f"config key {key!r} must be a {expected.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        choices = list(action.choices)
        raise ParameterError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _effective_options(
    parser: argparse.ArgumentParser, command: str, args: argparse.Namespace
) -> dict:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None}
    config_path = getattr(args, "config", None)
    from_config: dict = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file {config_path!r} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("config file must contain a JSON object")
        unknown = sorted(set(loaded) - set(_DEFAULTS[command]))
        if unknown:
            raise ParameterError(f"config keys not recognized for {command}: {unknown}")
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in commands.choices[command]._actions}
        for key, value in loaded.items():
            if value is not None or _DEFAULTS[command][key] is not None:
                loaded[key] = _config_value(actions[key], key, value)
        from_config = loaded
    opts = dict(_DEFAULTS[command])
    opts.update(from_config)
    opts.update(given)
    return opts


_DISPATCH = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _effective_options(parser, args.command, args)
        lines, code = _DISPATCH[args.command](opts)
    except ParameterError as exc:
        print(f"gbflab {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"gbflab {args.command}: numerical-integrity failure: {exc}", file=sys.stderr)
        return 4
    _emit(lines, opts.get("out"))
    return code


if __name__ == "__main__":
    sys.exit(main())
