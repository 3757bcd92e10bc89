import hashlib
import json
import math

import numpy as np
import pytest

from gbflab.cli import build_parser, main


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


def test_verify_default_grid_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    verdicts = [l for l in out.splitlines() if l.startswith("# verdict.")]
    assert verdicts, "expected verdict lines"
    assert all(v.endswith("=PASS") for v in verdicts)


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


def test_simulate_underflow_exits_4(capsys):
    # a block too long for this power underflows the error variance schedule
    code, _, err = run_cli(
        capsys, "simulate", "--power", "1e8", "--block-length", "60",
        "--rate1", "0.2", "--rate2", "0.2", "--trials", "100",
    )
    assert code == 4
    assert "underflow" in err


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
        ("simulate", "fixpoint_init", "yes"),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert key in err


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
    _, rows = parse_csv(out_s)
    last = rows[-1]
    assert last[0] == pytest.approx(1e4)
    assert float(rec["rho_star"]) == pytest.approx(last[1], rel=1e-12)
    assert float(rec["sum"]) == pytest.approx(last[5], rel=1e-12)


# stdout of the subcommands at their defaults, pinned byte for byte: a change
# to the solver or the campaign that moves any printed digit shows here.
GOLDEN_STDOUT_SHA256 = {
    ("analyze",): "f5d33c0e95d8fc6352e77cf3e926bb3c6caec13230b15684d067a881e0ef1a24",
    ("sweep",): "67cbfb111b65879e5919ea214a3aef1941138858dc52171046c96a56c3244bf9",
    ("verify",): "98e8ffceb534b87a0c2f9ca859480429accd1d6f51c5e8c9d2378389adc372cd",
    ("simulate", "--trials", "2000"): "7ecd3c94109f6c8a07fe5b860ec7eecf398777ea1b55162d7eba35883a6a1eb7",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_default_stdout_bytes_are_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


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


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "analyze", "--out", str(target))
    assert code == 2 and out == ""
    assert "cannot write output file" in err and str(target) in err


# every option of every subcommand at its documented default
OPTION_DEFAULTS = {
    "power": 100.0, "sigma1": 1.0, "sigma2": 1.0, "rhoz": -1.0, "tol": 1e-10,
    "p_start": 1e2, "p_stop": 1e10, "points_per_decade": 4, "delta": 0.2, "eps": 0.1,
    "trials": 10_000, "block_length": 20, "rate1": None, "rate2": None,
    "rate_fraction": 0.7, "mode": "broadcast", "fed_back_receiver": 1,
    "fixpoint_init": False, "seed": 20240901, "matrix": None, "out": None,
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
