import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gbflab
import gbflab.cli
from gbflab.cli import build_parser, main


GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(text):
    fields = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        fields[key] = value
    return fields


def parse_csv(text):
    header, rows = None, []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, rows


def test_analyze_record(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--power", "10", "--rhoz", "-1")
    assert code == 0
    rec = parse_record(out)
    assert float(rec["rho_star"]) == pytest.approx(0.8893991641, abs=1e-9)
    assert float(rec["g"]) == pytest.approx(0.1106008359, abs=1e-9)
    assert float(rec["R1"]) == pytest.approx(1.4121849532, abs=1e-9)
    assert float(rec["sum"]) == pytest.approx(2 * 1.4121849532, abs=1e-8)
    assert "# option.power=1.000000000000e+01" in out


def test_analyze_high_power_prelog(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--power", "1e10")
    rec = parse_record(out)
    assert code == 0
    assert float(rec["prelog_ratio"]) >= 1.9


def test_analyze_where_rho_star_rounds_to_one(capsys):
    # g = (s1 + s2) sqrt((1 + rho_z) / 2) / sqrt(P) = 4.47e-17 is below 2^-53,
    # so rho* = 1 - g rounds to 1 and the gap alone carries the root.
    code, out, err = run_cli(capsys, "analyze", "--power", "1e33", "--rhoz", "0")
    rec = parse_record(out)
    assert code == 0 and err == ""
    assert (rec["rho_star"], rec["g"]) == ("1.000000000000e+00", "4.472135955000e-17")


def test_analyze_where_the_recursion_overflows(capsys):
    # At these tiny sigmas the recursion's spp / (q s1 s2) overflows, which
    # printed two RuntimeWarnings and recursion_residual=nan; analyze prints
    # the grid solve's row alone, whose values are all finite.
    code, out, err = run_cli(
        capsys, "analyze", "--power", "3.56e78", "--sigma1", "5.19e-71", "--sigma2", "1.47e-69",
        "--rhoz", "0",
    )
    rec = parse_record(out)
    assert code == 0 and err == "" and "recursion_residual" not in out
    assert all(math.isfinite(float(value)) for value in rec.values())
    assert rec["g"] == "5.703561387414e-109"


def test_sweep_where_rho_star_rounds_to_one(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--p-start", "1e30", "--p-stop", "1e40", "--rhoz", "0.5"
    )
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 41
    # The gap follows (s1 + s2) sqrt((1 + rho_z) / 2) / sqrt(P) = sqrt(3 / P).
    for row in rows:
        assert row[2] * math.sqrt(row[0]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_analyze_invalid_sigma_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--sigma1", "-1")
    assert code == 2
    assert "sigma1" in err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
@pytest.mark.parametrize("flag", ["--sigma1", "--sigma2"])
def test_sigma_whose_square_overflows_exits_2(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag, "1e160")
    assert code == 2 and out == ""
    assert f"{flag[2:]} = 1e+160" in err and "overflows" in err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
@pytest.mark.parametrize("flag", ["--sigma1", "--sigma2"])
def test_sigma_whose_square_underflows_exits_2(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag, "1e-200")
    assert code == 2 and out == ""
    assert f"{flag[2:]} = 1e-200" in err and "underflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--power", "1e300"),
        ("analyze", "--power", "2e154"),
        ("analyze", "--sigma1", "1e100", "--sigma2", "1e100"),
        ("analyze", "--power", "1e-320", "--sigma1", "1e-3", "--sigma2", "1e-3"),
        # P spp is in range, but the cubic's coefficients overflow
        ("analyze", "--power", "1e-309"),
        ("analyze", "--power", "1e-300", "--sigma1", "1e5", "--sigma2", "1e5"),
        # (s1 + s2)^2 s1 s2 is subnormal (lambda0 also underflows to 0)
        ("analyze", "--power", "1e150", "--sigma1", "1e-80", "--sigma2", "1e-80"),
        # lambda0, about -(s1 + s2)^4 / (2 P^2), is subnormal
        ("analyze", "--power", "1e153", "--sigma1", "0.1", "--sigma2", "0.1"),
        ("sweep", "--p-start", "1e150", "--p-stop", "1e153", "--sigma1", "0.1", "--sigma2", "0.1"),
        ("simulate", "--power", "1e300"),
        ("sweep", "--p-stop", "1e200"),
        ("verify", "--p-stop", "1e200"),
    ],
)
def test_power_beyond_solver_float_range_exits_2(capsys, argv):
    # Rejected before the solver bisects: no overflow RuntimeWarning (the suite
    # turns those into errors), no exit 4 from the solver and, for a product
    # that underflows to 0, no division by zero.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "beyond the solver's float range" in err and "P = " in err and "sigma1 = " in err


def test_sweep_table_schema_and_monotonicity(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p-start", "1e2", "--p-stop", "1e6")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["P", "rho_star", "g", "R1", "R2", "sum", "prelog_ratio", "scaled_gap"]
    powers = [r[0] for r in rows]
    assert powers == sorted(powers)
    ratios = [r[6] for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_delta_one_scaled_gap_equals_gap(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p-start", "1e2", "--p-stop", "1e4", "--delta", "1")
    header, rows = parse_csv(out)
    for r in rows:
        assert r[7] == pytest.approx(r[2], rel=1e-12)


def test_sweep_too_narrow_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--p-start", "100", "--p-stop", "500")
    assert code == 2
    assert "decades" in err


def test_simulate_moment_table(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--trials", "500", "--block-length", "10", "--seed", "7"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:9] == [
        "step", "mean1", "mean2", "var1", "var2", "corr", "alpha1", "alpha2", "rho",
    ]
    assert len(rows) == 9  # steps k = 2..10
    zcols = np.array([r[9:] for r in rows])
    assert np.max(np.abs(zcols)) <= 5.0
    rec = parse_record(out.replace("# summary.", "summary."))
    assert int(rec["summary.trials"]) == 500


def test_simulate_interference_summary_matches_broadcast(capsys):
    code_b, out_b, _ = run_cli(
        capsys, "simulate", "--trials", "300", "--block-length", "10", "--seed", "11",
        "--mode", "broadcast",
    )
    code_i, out_i, _ = run_cli(
        capsys, "simulate", "--trials", "300", "--block-length", "10", "--seed", "11",
        "--mode", "interference",
    )
    assert code_b == code_i == 0
    pick = lambda text, key: [l for l in text.splitlines() if l.startswith(f"# summary.{key}=")]
    for key in ("errors", "error_rate", "mean_power"):
        assert pick(out_b, key) == pick(out_i, key)
    assert pick(out_i, "tx1_mean_power")


def test_simulate_limited_requires_degenerate_noise(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--mode", "limited", "--rhoz", "0.5", "--trials", "200",
    )
    assert code == 2
    assert "rho_z" in err


def test_simulate_single_point_alphabet_exits_2(capsys):
    # --rate1 0 gives user 1 one message point: its variance is zero, and the
    # message says what to change.
    code, out, err = run_cli(capsys, "simulate", "--rate1", "0", "--trials", "100")
    assert code == 2 and out == ""
    assert "message-point variances must be positive" in err
    assert "at least two message points" in err and "alphabet of size >= 2" in err


def test_verify_default_grid_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    verdicts = [l for l in out.splitlines() if l.startswith("# verdict.")]
    assert verdicts, "expected verdict lines"
    assert all(v.endswith("=PASS") for v in verdicts)


def test_verify_prints_the_report_verdicts_in_order_failing_ones_too(capsys):
    # A grid that stops at P = 10 is far from the high-power limit: both
    # tolerance verdicts and both anti-correlated trend verdicts fail there.
    code, out, _ = run_cli(capsys, "verify", "--p-start", "1e-3", "--p-stop", "10")
    assert code == 0
    printed = [l for l in out.splitlines() if l.startswith("# verdict.")]
    grid = gbflab.analysis.power_grid(1e-3, 10.0, 4)
    report = gbflab.verify_asymptotics(gbflab.NoiseSpec(1.0, 1.0, -1.0), grid)
    status = {True: "PASS", False: "FAIL", None: "NA"}
    assert printed == [f"# verdict.{k}={status[v]}" for k, v in report.monotone.items()]
    assert [l.rsplit("=", 1)[1] for l in printed] == [
        "FAIL", "FAIL", "PASS", "PASS", "PASS", "FAIL", "FAIL"
    ]


def test_verify_eq35_column_value(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p-start", "1e2", "--p-stop", "1e6")
    header, rows = parse_csv(out)
    i = header.index("root_defect")
    final = rows[-1]
    assert final[0] == pytest.approx(1e6)
    assert abs(final[i] - 1.0) < 0.01  # (sigma1^2 + sigma2^2)/2 = 1


def test_verify_single_decade_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--p-start", "100", "--p-stop", "1000")
    assert code == 2


def test_verify_points_per_decade_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--points-per-decade", "0")
    assert code == 2
    assert "points_per_decade" in err


def test_verify_short_span_reports_the_span(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--p-start", "1", "--p-stop", "2", "--points-per-decade", "1"
    )
    assert code == 2
    assert "must span at least four decades" in err


def test_classify_exit_codes(tmp_path, capsys):
    two = tmp_path / "two.txt"
    two.write_text("1 -1\n-1 1\n")
    code, out, _ = run_cli(capsys, "classify", str(two))
    assert code == 0 and "class=Two" in out

    one = tmp_path / "one.txt"
    one.write_text("1 0.5\n0.5 1\n")
    code, out, _ = run_cli(capsys, "classify", str(one))
    assert code == 0 and "class=One" in out

    undef = tmp_path / "undef.txt"
    undef.write_text("1 1 0\n1 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "classify", str(undef))
    assert code == 3 and "class=Undefined" in out and "reason=" in out

    malformed = tmp_path / "bad.txt"
    malformed.write_text("1 0.5\n0.5\n")
    code, _, err = run_cli(capsys, "classify", str(malformed))
    assert code == 2

    nonpsd = tmp_path / "nonpsd.txt"
    nonpsd.write_text("1 0.9 -0.9\n0.9 1 0.9\n-0.9 0.9 1\n")
    code, _, err = run_cli(capsys, "classify", str(nonpsd))
    assert code == 2 and "PSD" in err

    missing = tmp_path / "missing.txt"
    code, _, err = run_cli(capsys, "classify", str(missing))
    assert code == 2

    # no rows: one error line, no numpy warning and no shape complaint
    for name, text in [("empty.txt", ""), ("blank.txt", "  \n\t\n\n")]:
        blank = tmp_path / name
        blank.write_text(text)
        code, out, err = run_cli(capsys, "classify", str(blank))
        assert code == 2 and out == ""
        assert err == f"gbflab classify: error: matrix file {str(blank)!r} holds no rows\n"


def test_simulate_underflow_exits_4(capsys):
    # a block too long for this power underflows the error variance schedule
    code, _, err = run_cli(
        capsys, "simulate", "--power", "1e8", "--block-length", "60",
        "--rate1", "0.2", "--rate2", "0.2", "--trials", "100",
    )
    assert code == 4
    assert "underflow" in err


@pytest.mark.parametrize(
    "power, block_length, step",
    [("1e300", "5", 4), ("1e20", "31", 31)],
)
def test_simulate_with_a_subnormal_variance_exits_4(capsys, power, block_length, step):
    # These printed mean_power=nan and NaN rows at P = 1e300, and a last
    # variance of 7.7e-308 at P = 1e20, with exit 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "simulate", "--power", power, "--block-length", block_length,
            "--trials", "100", "--rhoz", "0.3", "--rate1", "0.5", "--rate2", "0.5",
        )
    assert (code, out) == (4, "")
    assert err == (
        f"gbflab simulate: numerical-integrity failure: error variance underflowed at step "
        f"{step}; power P = {float(power)} is too large for block length n = {block_length}\n"
    )


def test_byte_identical_reruns(tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = ["simulate", "--trials", "300", "--block-length", "8", "--seed", "5",
            "--out", str(out)]
    assert main(list(argv)) == 0
    first = out.read_bytes()
    assert main(list(argv)) == 0
    second = out.read_bytes()
    capsys.readouterr()
    assert first == second


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": 10.0, "sigma1": 2.0}))
    # config alone
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    rec = parse_record(out)
    assert code == 0
    assert float(rec["sigma1"]) == 2.0
    assert float(rec["P"]) == 10.0
    # flag overrides config
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--sigma1", "1.0")
    rec = parse_record(out)
    assert float(rec["sigma1"]) == 1.0
    # unknown key rejected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli(capsys, "analyze", "--config", str(bad))
    assert code == 2 and "nonsense" in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("analyze", "power", "100"),
        ("simulate", "trials", 100.5),
        ("simulate", "mode", 1),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert key in err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file {path!r}: [Errno 2] No such file or directory"),
        ("{power: 1}", "config file {path!r} is not valid JSON: Expecting property name"),
        ("[1, 2]", "config file must contain a JSON object"),
        ('{"mode": "bogus"}',
         "config key 'mode' must be one of ('broadcast', 'interference', 'limited'), "
         "got 'bogus'"),
        ('{"power": 1' + "0" * 400 + "}",
         "config key 'power' is an integer beyond float range"),
    ],
    ids=["missing", "invalid-json", "array", "bad-choice", "huge-integer"],
)
def test_config_file_that_cannot_be_used_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("gbflab simulate: error: " + message.format(path=str(cfg)))


@pytest.mark.parametrize("key, value", [("fixpoint_init", True), ("fed_back_receiver", 1)])
def test_config_naming_a_deleted_simulate_option_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "config keys not recognized" in err and key in err


@pytest.mark.parametrize("flags", [["--fixpoint-init"], ["--fed-back-receiver", "1"]])
def test_deleted_simulate_flag_exits_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "100", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
def test_config_naming_tol_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-10}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "config keys not recognized" in err and "'tol'" in err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
def test_tol_flag_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--tol", "1e-10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_rate_fraction_is_checked_when_both_rates_are_given(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--rate1", "0.5", "--rate2", "0.5", "--rate-fraction", "5",
        "--trials", "100",
    )
    assert code == 2 and out == ""
    assert "rate_fraction must lie in (0, 1), got 5.0" in err


def test_config_integer_for_float_flag_parses_as_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": 10}))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    assert "# option.power=1.000000000000e+01" in out


def test_analyze_matches_sweep_row(capsys):
    code, out_a, _ = run_cli(capsys, "analyze", "--power", "1e4")
    rec = parse_record(out_a)
    code, out_s, _ = run_cli(capsys, "sweep", "--p-start", "1e2", "--p-stop", "1e4")
    # A power's solve does not depend on the grid it is solved in, and both
    # subcommands form their rates through one transcription, so every cell
    # the two print for P = 1e4 is the same text.
    header, *_, last = [line for line in out_s.splitlines() if not line.startswith("#")]
    cells = dict(zip(header.split(","), last.split(",")))
    for key in ("P", "rho_star", "g", "R1", "R2", "sum", "prelog_ratio"):
        assert cells[key] == rec[key], key


# stdout of the subcommands at their defaults, and of analyze at unequal
# sigmas, where the two users' rates differ, pinned byte for byte: a change to
# the solver, the rates or the campaign that moves any printed digit shows
# here.  Each invocation's stdout is committed as text under tests/golden/,
# made on the stack named in test_pinned_bytes.py, so a mismatch shows the
# lines that moved.
GOLDEN_ARGV = [
    ("analyze",),
    ("analyze", "--sigma2", "2"),
    ("sweep",),
    ("verify",),
    ("simulate", "--trials", "2000"),
    ("simulate", "--mode", "interference"),
    ("simulate", "--mode", "limited"),
]


def golden_text(argv):
    """The committed stdout of ``gbflab *argv``, read without newline
    translation."""
    name = "-".join(arg.lstrip("-") for arg in argv) + ".txt"
    with open(GOLDEN / name, encoding="utf-8", newline="") as f:
        return f.read()


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=" ".join)
def test_default_stdout_bytes_are_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden_text(argv)


# stdout of invocations whose solves start far from [0, 1/2]: a grid down to
# P = 1e-3 that also reaches g ~ 1e-14, and one power 1,014 halvings deep.
SOLVER_ARGV = [
    ("sweep", "--p-start", "1e-3", "--p-stop", "1e14", "--points-per-decade", "8"),
    ("verify", "--p-start", "1e-3", "--p-stop", "1e14", "--points-per-decade", "8"),
    ("analyze", "--power", "1e-290"),
]


@pytest.mark.parametrize("argv", SOLVER_ARGV, ids=" ".join)
def test_solver_stdout_bytes_are_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden_text(argv)


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_infinite_grid_bound_exits_2(tmp_path, capsys, command, via_config):
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p_stop": Infinity}')
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--p-stop", "inf"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "p_stop" in err


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_block_length_beyond_float_range_exits_2(tmp_path, capsys, via_config):
    block_length = "1" + "0" * 400
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"block_length": ' + block_length + "}")
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["simulate", "--block-length", block_length]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "gbflab simulate: error: block length beyond float range; not supported\n"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "analyze", "--out", str(target))
    assert code == 2 and out == ""
    assert "cannot write output file" in err and str(target) in err


# every option of every subcommand at its documented default
OPTION_DEFAULTS = {
    "power": 100.0, "sigma1": 1.0, "sigma2": 1.0, "rhoz": -1.0,
    "p_start": 1e2, "p_stop": 1e10, "points_per_decade": 4, "delta": 0.2, "eps": 0.1,
    "trials": 10_000, "block_length": 20, "rate1": None, "rate2": None,
    "rate_fraction": 0.7, "mode": "broadcast", "seed": 20240901, "matrix": None,
    "out": None,
}


def argv_of(command, tmp_path):
    if command == "classify":
        matrix = tmp_path / "corr.txt"
        matrix.write_text("1 -1\n-1 1\n")
        return [command, str(matrix)]
    return [command, "--trials", "200"] if command == "simulate" else [command]


def echoed_options(out):
    return {l.split("=", 1)[0][len("# option."):] for l in out.splitlines()
            if l.startswith("# option.")}


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate", "verify", "classify"])
def test_config_of_all_defaults_changes_nothing(tmp_path, capsys, command):
    argv = argv_of(command, tmp_path)
    code, plain, _ = run_cli(capsys, *argv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: OPTION_DEFAULTS[k] for k in echoed_options(plain)}))
    code_cfg, with_cfg, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code_cfg == code and err == ""
    assert with_cfg == plain


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate", "verify", "classify"])
def test_echoed_options_are_the_parser_options(tmp_path, capsys, command):
    argv = argv_of(command, tmp_path)
    dests = set(vars(build_parser().parse_args(argv))) - {"command", "config"}
    code, out, _ = run_cli(capsys, *argv)
    assert echoed_options(out) == dests


def run_python(*args):
    """Run the interpreter on ``args`` in a fresh process that imports this gbflab."""
    src = os.path.dirname(os.path.dirname(gbflab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def test_import_leaves_unneeded_modules_unloaded():
    # statistics pulls in fractions and decimal, about 1.5 ms of every CLI
    # process, and nothing in gbflab needs them; json loads with a --config
    # file and the simulator with the simulate subcommand.
    unneeded = "{'statistics', 'fractions', 'json', 'gbflab.simulate'}"
    code = f"import sys, gbflab, gbflab.cli; print(sorted({unneeded} & set(sys.modules)))"
    done = run_python("-c", code)
    assert (done.returncode, done.stdout) == (0, b"[]\n")


TRACER_PATCHES = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = [f"{m.__name__}.{a}" for m, a, _ in tracing.PATCHES if not hasattr(m, a)]
print(len(tracing.PATCHES), missing)
"""


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench's tracer replaces these names in a traced run; deleting or
    # renaming one of them breaks that run.
    tracing = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")
    done = run_python("-c", TRACER_PATCHES, tracing)
    assert done.returncode == 0, done.stderr
    count, missing = done.stdout.decode().split(" ", 1)
    assert int(count) > 0 and missing == "[]\n"


SUBCOMMANDS_IN_ONE_PROCESS = """
import contextlib, io, sys
from gbflab.cli import main
for argv in (["analyze"], ["sweep"], ["verify"], ["classify", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, sorted({"gbflab.simulate", "numpy.random"} & set(sys.modules)))
"""


def test_subcommands_that_simulate_nothing_leave_the_simulator_unloaded(tmp_path):
    matrix = tmp_path / "corr.txt"
    matrix.write_text("1 -1\n-1 1\n")
    done = run_python("-c", SUBCOMMANDS_IN_ONE_PROCESS, str(matrix))
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [
        f"{command} 0 []" for command in ("analyze", "sweep", "verify", "classify")
    ]


SIMULATE_NAMES = [
    "CoefficientSchedule",
    "McSummary",
    "MessageConfig",
    "TrialRecord",
    "level_count",
    "lmmse_coefficient_schedule",
    "message_point_variance",
    "run_broadcast_campaign",
    "run_broadcast_trial",
    "run_interference_trial",
    "run_limited_feedback_trial",
]


@pytest.mark.parametrize("name", SIMULATE_NAMES)
def test_package_simulate_names_are_the_simulate_objects(name):
    namespace = {}
    exec(f"from gbflab import {name}", namespace)
    assert getattr(gbflab, name) is namespace[name] is getattr(gbflab.simulate, name)


def test_package_and_cli_resolve_only_the_names_they_have():
    namespace = {}
    exec("from gbflab import simulate", namespace)
    assert namespace["simulate"] is sys.modules["gbflab.simulate"]
    assert gbflab.cli.run_broadcast_campaign is gbflab.simulate.run_broadcast_campaign
    assert gbflab.cli.MessageConfig is gbflab.simulate.MessageConfig
    for module in (gbflab, gbflab.cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from gbflab import no_such_name", {})


def test_first_simulate_name_loads_the_simulator():
    code = (
        "import sys, gbflab; loaded = 'gbflab.simulate' in sys.modules; "
        "from gbflab import run_broadcast_campaign as run; "
        "print(loaded, run is sys.modules['gbflab.simulate'].run_broadcast_campaign)"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stdout) == (0, b"False True\n"), done.stderr


BARE_IMPORT = """
import sys, gbflab
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("gbflab.")))
print(set(gbflab.__all__) <= set(dir(gbflab)), "sweep_rates" in vars(gbflab))
print(gbflab.channel is sys.modules["gbflab.channel"], "gbflab.analysis" in sys.modules)
rates = gbflab.sweep_rates
print(vars(gbflab)["sweep_rates"] is rates is sys.modules["gbflab.analysis"].sweep_rates)
"""


def test_bare_import_loads_no_numpy_and_each_name_loads_on_first_use():
    done = run_python("-c", BARE_IMPORT)
    expected = b"[]\nTrue False\nTrue False\nTrue\n"
    assert (done.returncode, done.stdout) == (0, expected), done.stderr


def test_star_import_binds_every_public_name_from_its_defining_module():
    namespace = {}
    exec("from gbflab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gbflab.__all__)
    for name in gbflab.__all__:
        module = sys.modules[f"gbflab.{gbflab._HOME[name]}"]
        assert namespace[name].__module__ == module.__name__
        assert namespace[name] is getattr(module, name) is getattr(gbflab, name)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random takes 11-15 ms to load; only a random stream needs it, and
    # it loads with the first one.
    done = run_python("-c", "import sys, gbflab, gbflab.cli; print('numpy.random' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, b"False\n")


FIRST_STREAMS_ON_THREADS = """
import sys, threading
import numpy as np
from gbflab import RngSpec, make_generator
sys.setswitchinterval(1e-6)
start, draws = threading.Barrier(8), {}
def first_stream(i):
    start.wait(timeout=30)
    draws[i] = make_generator(RngSpec(7, i)).standard_normal(3)
threads = [threading.Thread(target=first_stream, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
assert not any(t.is_alive() for t in threads) and len(draws) == 8
for i, got in draws.items():
    key = np.array([7, i], dtype=np.uint64)
    assert np.array_equal(got, np.random.Generator(np.random.Philox(key=key)).standard_normal(3))
print("ok")
"""


def test_first_streams_opened_on_threads_at_once_are_the_keyed_streams():
    # The first stream of a process loads numpy.random and registers the key
    # type; threads that get there together must all get their keyed streams.
    done = run_python("-c", FIRST_STREAMS_ON_THREADS)
    assert (done.returncode, done.stdout) == (0, b"ok\n"), done.stderr


# Through run(), in a fresh process: simulate loads numpy.random and starts
# its stream after the freeze.
@pytest.mark.parametrize(
    "argv", [("analyze",), ("verify",), ("simulate", "--mode", "limited")], ids=" ".join
)
def test_module_entry_point_prints_the_golden_bytes(argv):
    done = run_python("-m", "gbflab.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == golden_text(argv).encode()


def test_module_entry_point_exits_2_as_main_does(capsys):
    argv = ("analyze", "--power", "-1")
    code, out, err = run_cli(capsys, *argv)
    done = run_python("-m", "gbflab.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    assert code == 2 and err


@pytest.mark.parametrize(
    "argv", [("analyze",), ("simulate", "--trials", "1000")], ids=" ".join
)
def test_main_leaves_the_gc_unfrozen(capsys, argv):
    # main is the in-process call; a freeze there would keep every caller's
    # cyclic garbage for the life of the process.
    before = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, status", [
    (["analyze"], 0),
    (["analyze", "--power", "-1"], 2),
], ids=["analyze", "power-1"])
def test_run_freezes_once_before_main_and_exits_with_its_status(monkeypatch, argv, status):
    # The recorder stands in for gc.freeze, so this process is never frozen.
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(gbflab.cli, "main", lambda: events.append("main") or main())
    monkeypatch.setattr(sys, "argv", ["gbflab", *argv])
    with pytest.raises(SystemExit) as exit_info:
        gbflab.cli.run()
    assert exit_info.value.code == status
    assert events == ["freeze", "main"]


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["gbflab"] == "gbflab.cli:run"
