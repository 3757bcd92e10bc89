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
import gc
import sys
import warnings

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
from .channel import _MODES, ChannelParams, NoiseSpec
from .errors import NumericalIntegrityError, ParameterError


def __getattr__(name: str):
    # The simulator loads with the simulate subcommand, and these two names
    # with it; perfbench's tracer wraps cli.run_broadcast_campaign.
    if name in ("MessageConfig", "run_broadcast_campaign"):
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _records(prefix: str, pairs) -> list[str]:
    """One '<prefix><key>=<value>' line per (key, value) pair: every record
    line the CLI prints is formed here."""
    return [f"{prefix}{key}={_fmt(value)}" for key, value in pairs]


def _option_header(command: str, opts: dict) -> list[str]:
    return [f"# gbflab {command}", *_records("# option.", sorted(opts.items()))]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file {out_path!r}: {exc}") from exc


def _csv_row(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _noise_from(opts: dict) -> NoiseSpec:
    return NoiseSpec(sigma1=opts["sigma1"], sigma2=opts["sigma2"], rho_z=opts["rhoz"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(opts: dict) -> tuple[list[str], int]:
    params = ChannelParams(power=opts["power"], noise=_noise_from(opts))
    fp = solve_fixed_point(params)
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    return _option_header("analyze", opts) + _records("", [
        ("P", params.power),
        ("sigma1", params.noise.sigma1),
        ("sigma2", params.noise.sigma2),
        ("rhoz", params.noise.rho_z),
        ("rho_star", fp.rho_star),
        ("g", fp.gap),
        ("cubic_residual", fp.residual),
        ("R1", rp.r1),
        ("R2", rp.r2),
        ("sum", rp.sum),
        ("prelog_ratio", rp.prelog_ratio),
    ]), 0


def _cmd_sweep(opts: dict) -> tuple[list[str], int]:
    rows = sweep_rates(
        _noise_from(opts),
        opts["p_start"],
        opts["p_stop"],
        opts["points_per_decade"],
        delta=opts["delta"],
    )
    lines = _option_header("sweep", opts)
    lines.append("P,rho_star,g,R1,R2,sum,prelog_ratio,scaled_gap")
    lines.extend(map(_csv_row, rows))
    return lines, 0


def _cmd_simulate(opts: dict) -> tuple[list[str], int]:
    from .simulate import MessageConfig, run_broadcast_campaign

    params = ChannelParams(power=opts["power"], noise=_noise_from(opts))
    fraction = opts["rate_fraction"]
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"rate_fraction must lie in (0, 1), got {fraction}")
    rate1, rate2 = opts["rate1"], opts["rate2"]
    if rate1 is None or rate2 is None:
        fp = solve_fixed_point(params)
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
    )
    fields = [
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
    if summary.tx1_mean_power is not None:  # interference mode only
        fields += [("tx1_mean_power", summary.tx1_mean_power),
                   ("tx2_mean_power", summary.tx2_mean_power)]
    lines = _option_header("simulate", opts) + _records("# summary.", fields)
    columns = {"step": summary.steps}
    for name in ("mean1", "mean2", "var1", "var2", "corr", "alpha1", "alpha2", "rho"):
        columns[name] = getattr(summary, name)
    for name, z in summary.moment_z_scores().items():
        columns["z_" + name] = z
    lines.append(",".join(columns))
    lines.extend(map(_csv_row, zip(*columns.values())))
    return lines, 0


def _cmd_verify(opts: dict) -> tuple[list[str], int]:
    grid = power_grid(opts["p_start"], opts["p_stop"], opts["points_per_decade"])
    report = verify_asymptotics(_noise_from(opts), grid, delta=opts["delta"], eps=opts["eps"])
    lines = _option_header("verify", opts)
    lines.append(
        "P,lambda2,lambda2_err,lambda1_scaled,root_defect,root_defect_err,"
        "lambda0_scaled,gap,gap_scaled"
    )
    lines.extend(map(_csv_row, report.rows))
    status = {True: "PASS", False: "FAIL", None: "NA"}
    return lines + _records("# verdict.", [(k, status[v]) for k, v in report.monotone.items()]), 0


def _cmd_classify(opts: dict) -> tuple[list[str], int]:
    path = opts["matrix"]
    try:
        with warnings.catch_warnings():
            # loadtxt's only warning: "input contained no data"
            warnings.simplefilter("error", UserWarning)
            matrix = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ParameterError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"malformed matrix file {path!r}: {exc}") from exc
    except UserWarning as exc:
        raise ParameterError(f"matrix file {path!r} holds no rows") from exc
    result = prelog_classify(matrix)
    lines = _option_header("classify", opts)
    lines += _records("", [("class", result.value.value), ("reason", result.reason)])
    return lines, 3 if result.value is PrelogValue.UNDEFINED else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# name -> (type, default, help, choices)
_OPTIONS = {
    "power": (float, 100.0, "average block power P", None),
    "sigma1": (float, 1.0, "noise std. dev. at receiver 1", None),
    "sigma2": (float, 1.0, "noise std. dev. at receiver 2", None),
    "rhoz": (float, -1.0, "noise correlation coefficient", None),
    "p_start": (float, 1e2, "first grid power", None),
    "p_stop": (float, 1e10, "last grid power", None),
    "points_per_decade": (int, 4, "grid density", None),
    "delta": (float, 0.2, "exponent in scaled_gap = P^(1-delta) * g", None),
    "eps": (float, 0.1, "slack exponent, 0 < eps < delta", None),
    "trials": (int, 10_000, "number of independent blocks", None),
    "block_length": (int, 20, "channel uses per block", None),
    "rate1": (float, None, "bits per use for user 1", None),
    "rate2": (float, None, "bits per use for user 2", None),
    "rate_fraction": (
        float,
        0.7,
        "set unspecified rates to this fraction of the achievable rates at the fixed point",
        None,
    ),
    "mode": (str, "broadcast", None, _MODES),
    "seed": (int, 20240901, "master seed", None),
    "matrix": (str, None, "text file, one matrix row per line, whitespace separated", None),
    "out": (str, None, "output file (default: stdout)", None),
}

_NOISE = ("sigma1", "sigma2", "rhoz")
_GRID = ("p_start", "p_stop", "points_per_decade")

# subcommand -> (help, handler, its options in --help order); each also takes --config
_COMMANDS = {
    "analyze": ("fixed point and rates at one power", _cmd_analyze,
                ("power", *_NOISE, "out")),
    "sweep": ("rates and gap over a power grid", _cmd_sweep,
              (*_GRID, *_NOISE, "delta", "out")),
    "simulate": ("Monte Carlo campaign", _cmd_simulate,
                 ("power", *_NOISE, "trials", "block_length", "rate1", "rate2",
                  "rate_fraction", "mode", "seed", "out")),
    "verify": ("high-power limit diagnostics", _cmd_verify,
               (*_GRID, *_NOISE, "delta", "eps", "out")),
    "classify": ("K-receiver pre-log class from a correlation matrix", _cmd_classify,
                 ("matrix", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbflab",
        description="feedback coding laboratory for two-user Gaussian channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name in names:
            kind, _, help_text, choices = _OPTIONS[name]
            flag = name if name == "matrix" else "--" + name.replace("_", "-")  # one positional
            p.add_argument(flag, type=kind, choices=choices, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults; flags override it")
    return parser


def _config_value(key: str, value):
    """``value`` as ``key``'s flag would parse it, or ParameterError when
    its JSON type or value is one the flag would not accept."""
    expected, _, _, choices = _OPTIONS[key]
    if expected is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ParameterError(f"config key {key!r} is an integer beyond float range") from None
    if type(value) is not expected:
        raise ParameterError(f"config key {key!r} must be a {expected.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise ParameterError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _effective_options(command: str, args: argparse.Namespace) -> dict:
    opts = {name: _OPTIONS[name][1] for name in _COMMANDS[command][2]}
    if args.config is not None:
        import json  # only a config file needs it

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("config file must contain a JSON object")
        unknown = sorted(set(loaded) - set(opts))
        if unknown:
            raise ParameterError(f"config keys not recognized for {command}: {unknown}")
        for key, value in loaded.items():
            if value is not None or opts[key] is not None:
                value = _config_value(key, value)
            opts[key] = value
    opts.update((k, v) for k, v in vars(args).items() if k in opts and v is not None)
    return opts


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _effective_options(args.command, args)
        lines, code = _COMMANDS[args.command][1](opts)
        _emit(lines, opts["out"])
    except ParameterError as exc:
        print(f"gbflab {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"gbflab {args.command}: numerical-integrity failure: {exc}", file=sys.stderr)
        return 4
    return code


def run() -> None:
    """Process entry point of the ``gbflab`` script and ``python -m gbflab.cli``.

    ``gc.freeze()`` first moves every object alive after the imports,
    numpy's included, into the GC's permanent generation, so that no
    collection walks them again, the one at exit included.  ``main`` is the
    in-process call and leaves the GC alone: a freeze there would keep its
    callers' cyclic garbage for good.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
