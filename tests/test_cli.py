import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cottonkit.cli import RunConfig, main


def run_cli(*args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_verify_pass_exit_zero():
    code, out, _ = run_cli("verify", "--case", "c+", "--C", "1", "--what", "cotton", "--format", "text")
    assert code == 0
    assert "PASS" in out and "cotton" in out


def test_verify_failing_tolerance_exit_one():
    code, out, _ = run_cli(
        "verify", "--case", "c+", "--what", "cotton", "--format", "json", "--tol", "1e-30"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failed"] >= 1
    assert payload["schema"] == "cottonkit/1"


def test_verify_unknown_check_exit_two():
    code, _, err = run_cli("verify", "--what", "nonsense")
    assert code == 2
    assert "unknown checks" in err


def test_verify_multiple_whats():
    code, out, _ = run_cli(
        "verify", "--case", "kink+", "--what", "eom,first-integral", "--format", "text"
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_stable_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            "verify", "--case", "a", "--what", "curvature", "--stable-output",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wall_time" not in a.read_text()


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli("verify", "--case", "a", "--what", "curvature", "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check_id,case,max_residual,tolerance,passed"
    assert len(lines) == 3


def test_solve_kink_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code, msg, _ = run_cli(
        "solve", "kink", "--C", "1", "--xmax", "8", "--n", "101", "--tol", "1e-6",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f,h,residual_eq14,first_integral"
    assert len(lines) == 102
    row = lines[51].split(",")  # x = 0 by symmetry of the grid
    assert abs(float(row[0])) < 1e-12
    assert abs(float(row[1])) < 1e-9


def test_solve_kink_tol_bounds_the_first_integral_drift(tmp_path):
    # tol sets no step size: the drift at C = 1 is the stencil floor, about
    # 1.25e-7, which 100*tol = 1e-8 rejects and 1e-5 admits
    out = tmp_path / "profile.csv"
    code, _, err = run_cli("solve", "kink", "--tol", "1e-10", "--out", str(out))
    assert code == 1
    match = re.search(r"solver error: first-integral drift (\S+) exceeds 100\*tol; run rejected", err)
    assert match, err
    assert float(match.group(1)) == pytest.approx(1.25e-7, rel=0.01)
    assert not out.exists()
    code, msg, _ = run_cli("solve", "kink", "--tol", "1e-7", "--out", str(out))
    assert code == 0, msg
    assert len(out.read_text().splitlines()) == 802


def test_solve_kink_non_finite_orbit_exits_one(tmp_path, monkeypatch):
    import cottonkit.kink as kink

    real = kink._dopri5_orbit

    def nan_past_09(*args):
        Y, K = real(*args)
        Y[np.abs(Y[:, 0]) > 0.9] = np.nan
        return Y, K

    monkeypatch.setattr(kink, "_dopri5_orbit", nan_past_09)
    out = tmp_path / "profile.csv"
    code, _, err = run_cli("solve", "kink", "--out", str(out))
    assert code == 1
    assert "solver error: profile holds a non-finite value" in err
    assert not out.exists()


def test_lift_csv(tmp_path):
    out = tmp_path / "lift.csv"
    code, msg, _ = run_cli(
        "lift", "--potential", "(phi^2-1)^2/4", "--var", "phi", "--vacua=-1,1",
        "--xmax", "6", "--n", "101", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,k,f,g_tt"
    mid = lines[51].split(",")
    assert abs(float(mid[3]) - 0.25) < 1e-8



@pytest.mark.parametrize(
    "args, name",
    [
        (("solve", "kink", "--xmax", "nan"), "xmax"),
        (("solve", "kink", "--xmax", "inf"), "xmax"),
        (("solve", "kink", "--tol", "nan"), "tol"),
        (("solve", "kink", "--C", "nan"), "C"),
        (("lift", "--potential", "(phi^2-1)^2/4", "--vacua=-1,1", "--xmax", "nan"), "xmax"),
        (("lift", "--potential", "(phi^2-1)^2/4", "--vacua=-1,1", "--xmax", "inf"), "xmax"),
    ],
)
def test_kink_commands_reject_non_finite_input_exit_two(tmp_path, args, name):
    code, _, err = run_cli(*args, "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert f"error: {name} must be finite and positive" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_run_config_rejects_bad_coupling_exit_two(tmp_path, value):
    # every check used to run at |C| (or fail on a NaN metric) while the
    # config echo showed the bad value
    code, out, err = run_cli("verify", "--C", value, "--what", "curvature")
    assert (code, out) == (2, "")
    assert f"error: C must be finite and positive, got {float(value)!r}" in err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"C": float(value)}))
    code, _, err = run_cli("report", "--config", str(config), "--out", str(tmp_path / "rep"))
    assert code == 2 and "error: C must be finite and positive" in err
    assert not (tmp_path / "rep").exists()

def _flat_metric(tmp_path) -> Path:
    m = tmp_path / "flat.json"
    m.write_text(json.dumps({
        "coordinates": ["t", "x", "y"],
        "components": {"t,t": "1", "x,x": "-1", "y,y": "-1"},
    }), encoding="utf-8")
    return m


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tol_exit_two_before_any_check(tmp_path, monkeypatch, value):
    # verify ran the whole suite with a NaN tol and then exited 1; cotton
    # passed every finite residual with an inf tol; a negative tol was taken
    import cottonkit.cli as cli

    monkeypatch.setattr(cli, "run_checks", lambda **kw: pytest.fail("a check ran"))
    flat = _flat_metric(tmp_path)
    for args in (
        ("verify", "--what", "calibration"),
        ("cotton", "--metric", str(flat)),
        # a missing fields file shows the tol is refused before any input is read
        ("killing", "--metric", str(flat), "--fields", str(tmp_path / "absent.json")),
    ):
        code, out, err = run_cli(*args, "--tol", value)
        assert (code, out) == (2, ""), args
        assert f"error: tol must be finite and non-negative, got {float(value)!r}" in err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tol": "1e-9"}))
    code, _, err = run_cli("verify", "--config", str(config))
    assert code == 2 and "error: tol must be finite and non-negative, got '1e-9'" in err


def test_cotton_power_overflow_exit_two(tmp_path):
    # a constant 10^400 in a component printed a bare OverflowError traceback
    m = tmp_path / "overflow.json"
    m.write_text(json.dumps({
        "coordinates": ["t", "x", "y"],
        "components": {"t,t": "1+0*10^400*x", "x,x": "-1", "y,y": "-1"},
    }), encoding="utf-8")
    code, out, err = run_cli("cotton", "--metric", str(m))
    assert (code, out) == (2, "")
    assert err == "error: overflow in ^ (at characters 5..10)\n"


def test_cotton_function_overflow_exit_two(tmp_path):
    # exp(800) was inf, and 0*inf a NaN component
    m = tmp_path / "overflow.json"
    m.write_text(json.dumps({
        "coordinates": ["t", "x", "y"],
        "components": {"t,t": "1+0*exp(800)*x", "x,x": "-1", "y,y": "-1"},
    }), encoding="utf-8")
    code, out, err = run_cli("cotton", "--metric", str(m))
    assert (code, out) == (2, "")
    assert err == "error: overflow in exp (at characters 5..12)\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("t=0:1:3,x=0:1:3,y=0:nan:3", "grid axis 'y=0:nan:3' needs finite bounds"),
        ("t=0:1:3,x=0:1:3,y=0:1:3,z=0:1:3", "grid spec names axes the metric does not have: ['z']"),
        ("t=0:1:0,x=0:1:3,y=0:1:3", "grid axis 't=0:1:0' needs finite bounds and at least one point"),
        ("t=0:1,x=0:1:3,y=0:1:3", "grid axis 't=0:1' is not name=lo:hi:n"),
        ("t=0:1:3,x=0:1:3,y=0:1:3,t=0:2:3", "grid spec repeats axis 't'"),
    ],
)
def test_malformed_grid_spec_exit_two(tmp_path, spec, message):
    flat = _flat_metric(tmp_path)
    code, out, err = run_cli("cotton", "--metric", str(flat), "--grid", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "point, message",
    [
        ("nan,0.5,0.5", "--point needs finite components, got 'nan,0.5,0.5'"),
        ("inf,0,0", "--point needs finite components, got 'inf,0,0'"),
        ("0.5,abc,0.5", "--point '0.5,abc,0.5' is not a comma-separated list of numbers"),
    ],
)
def test_killing_dim_rejects_bad_point_exit_two(tmp_path, point, message):
    # a NaN point gave "killing_dimension": 6 and bare NaN in the JSON, with exit 0
    flat = _flat_metric(tmp_path)
    code, out, err = run_cli("killing-dim", "--metric", str(flat), "--point", point)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_catalog_export_and_downstream_commands(tmp_path):
    m3 = tmp_path / "c.json"
    fields = tmp_path / "fields.json"
    code, _, _ = run_cli("catalog", "export", "--case", "c+", "--what", "metric3d", "--out", str(m3))
    assert code == 0
    code, _, _ = run_cli("catalog", "export", "--case", "c+", "--what", "killing", "--out", str(fields))
    assert code == 0

    code, out, _ = run_cli(
        "cotton", "--metric", str(m3), "--grid", "t=0.5:2:3,x=0.5:2:3,y=-1:1:3", "--format", "text"
    )
    assert code == 0
    assert out.count("PASS") == 2

    code, out, _ = run_cli(
        "killing", "--metric", str(m3), "--fields", str(fields),
        "--grid", "t=0.5:2:3,x=0.5:2:3,y=-1:1:3", "--format", "text",
    )
    assert code == 0
    assert out.count("PASS") == 6

    code, out, _ = run_cli("killing-dim", "--metric", str(m3), "--point", "0.7,1.2,0.4", "--depth", "2")
    assert code == 0
    assert json.loads(out.strip())["killing_dimension"] == 6


def _export_c_plus_metric(tmp_path) -> Path:
    m3 = tmp_path / "c.json"
    code, _, _ = run_cli("catalog", "export", "--case", "c+", "--what", "metric3d", "--out", str(m3))
    assert code == 0
    return m3


def test_cotton_tol_zero_applies_to_both_reports(tmp_path):
    m3 = _export_c_plus_metric(tmp_path)
    code, out, _ = run_cli("cotton", "--metric", str(m3), "--tol", "0", "--stable-output")
    assert code in (0, 1)
    tolerances = {r["check_id"]: r["tolerance"] for r in json.loads(out)["checks"]}
    assert tolerances == {"cotton": 0.0, "cotton-identities": 0.0}


def test_cotton_report_wall_time_is_measured(tmp_path):
    m3 = _export_c_plus_metric(tmp_path)
    code, out, _ = run_cli("cotton", "--metric", str(m3))
    assert code == 0
    report = next(r for r in json.loads(out)["checks"] if r["check_id"] == "cotton")
    assert report["wall_time"] > 0


@pytest.mark.parametrize("what", ["killing", "killing-dim"])
def test_verify_check_applying_to_no_selected_case_exit_two(what):
    code, out, err = run_cli("verify", "--case", "kink", "--what", what)
    assert code == 2
    assert out == ""
    assert what in err and "a, b, c+, c-" in err


def test_catalog_export_case_b_gets_negative_C(tmp_path):
    out = tmp_path / "b.json"
    code, _, _ = run_cli("catalog", "export", "--case", "b", "--what", "metric3d", "--C", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["C"] == -2.0
    assert payload["parameters"]["absC"] == 2.0


@pytest.mark.parametrize("case", ["a", "b"])
def test_catalog_export_non_finite_C_exit_two(tmp_path, case):
    # a NaN coupling was exported as the invalid JSON token NaN, with exit 0
    out = tmp_path / "case.json"
    code, _, err = run_cli("catalog", "export", "--case", case, "--what", "metric3d", "--C", "nan", "--out", str(out))
    assert code == 2
    assert "error: C must be finite" in err
    assert not out.exists()


def test_complex_valued_metric_component_exit_two(tmp_path):
    # C^(1/3) with C = -8 has no real value; it must not be truncated to a real metric
    m = tmp_path / "m.json"
    m.write_text(json.dumps({
        "coordinates": ["t", "x", "y"],
        "parameters": {"C": -8},
        "components": {"t,t": "1+0.01*C^(1/3)*x", "x,x": "-1", "y,y": "-1"},
    }), encoding="utf-8")
    for args in (("cotton", "--grid", "default"), ("killing-dim", "--point", "0.7,1.2,0.4")):
        code, _, err = run_cli(args[0], "--metric", str(m), *args[1:])
        assert code == 2, args
        assert "pow applied outside its domain" in err and "(at characters 8..13)" in err


def test_nan_metric_component_exit_two(tmp_path):
    # inf - inf folds to NaN: a NaN determinant is degenerate, not a metric to judge
    m = tmp_path / "m.json"
    m.write_text(json.dumps({
        "coordinates": ["t", "x", "y"],
        "components": {"t,t": "1+(1e400-1e400)*x", "x,x": "-1", "y,y": "-1"},
    }), encoding="utf-8")
    for args in (("cotton", "--grid", "default"), ("killing-dim", "--point", "0.7,1.2,0.4")):
        code, _, err = run_cli(args[0], "--metric", str(m), *args[1:])
        assert code == 2, args
        assert "metric degenerate at" in err and "(det = nan)" in err


def test_missing_metric_file_exit_two():
    code, _, err = run_cli("cotton", "--metric", "/nonexistent/m.json")
    assert code == 2


def test_config_file_strict(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1.0, "bogus": 2}), encoding="utf-8")
    code, _, err = run_cli("verify", "--config", str(cfg), "--what", "calibration")
    assert code == 2
    assert "unknown config keys" in err

    cfg.write_text(json.dumps({"C": 1.0, "checks": ["calibration"], "format": "text"}), encoding="utf-8")
    code, out, _ = run_cli("verify", "--config", str(cfg))
    assert code == 0
    assert "calibration" in out


def test_config_file_thorough_and_stable_output_kept_without_flags(tmp_path):
    # store_true flags that were not given leave the config file's values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["calibration"], "thorough": True, "stable_output": True}), encoding="utf-8")
    code, out, _ = run_cli("verify", "--config", str(cfg), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["thorough"] is True and doc["config"]["stable_output"] is True
    assert [r["check_id"] for r in doc["checks"]] == ["calibration:C=0.25", "calibration:C=1", "calibration:C=9"]
    assert all("wall_time" not in r for r in doc["checks"])


@pytest.mark.parametrize(
    "entry, message",
    [
        # a string or float grid_n was a TypeError traceback
        ({"grid_n": "7"}, "grid_n must be an integer, got '7'"),
        ({"grid_n": 7.5}, "grid_n must be an integer, got 7.5"),
        ({"grid_n": True}, "grid_n must be an integer, got True"),
        # a string was split into one check per letter
        ({"checks": "eom"}, "checks must be a list of strings, got 'eom'"),
        ({"cases": ["c+", 1]}, "cases must be a list of strings, got ['c+', 1]"),
        ({"thorough": "no"}, "thorough must be true or false, got 'no'"),
        ({"stable_output": 1}, "stable_output must be true or false, got 1"),
        ({"out": 5}, "out must be a string or null, got 5"),
    ],
)
def test_config_field_of_the_wrong_type_exit_two(tmp_path, monkeypatch, entry, message):
    import cottonkit.cli as cli

    monkeypatch.setattr(cli, "run_checks", lambda **kw: pytest.fail("a check ran"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run_cli("verify", "--config", str(config))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(ValueError):
        RunConfig.from_dict({"nope": 1})
    cfg = RunConfig.from_dict({"C": 2.0, "thorough": True})
    assert cfg.C == 2.0 and cfg.thorough


def test_report_profile_csv_curvature_columns(tmp_path):
    # the r(x) column of the profile CSV is the exact closed-form curve
    from cottonkit.cli import _write_kink_profile_csv
    import math

    path = tmp_path / "kink_profile.csv"
    _write_kink_profile_csv(path, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f,h,r,R,residual_eq14,first_integral"
    for row in lines[1::40]:
        x, f, h, r, R = (float(v) for v in row.split(",")[:5])
        assert abs(r - (-2.0 + 3.0 / math.cosh(x / 2.0) ** 2)) < 1e-9
        assert abs(R - (-1.5 + 2.5 / math.cosh(x / 2.0) ** 2)) < 1e-9


def test_report_command_end_to_end(tmp_path):
    # full default suite; slow but the one place the consolidated report
    # format is exercised for real
    code, out, _ = run_cli("report", "--C", "1", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "cottonkit/1"
    assert payload["failed"] == 0
    assert len(payload["checks"]) > 60
    assert (tmp_path / "kink_profile.csv").exists()


def test_report_stable_output_independent_of_out_dir(tmp_path, monkeypatch):
    # a cheap selection stands in for the default suite: what is under test
    # is the config block, which must not record the output directory
    import cottonkit.cli as cli

    real = cli.run_checks
    monkeypatch.setattr(cli, "run_checks", lambda **kw: real(checks=["calibration", "kink-solver"], **kw))
    bodies = []
    for name in ("repA", "repB"):
        code, _, _ = run_cli("report", "--stable-output", "--out", str(tmp_path / name))
        assert code == 0
        bodies.append((tmp_path / name / "report.json").read_bytes())
    assert bodies[0] == bodies[1]
    assert "out" not in json.loads(bodies[0])["config"]


def test_console_entry_point_runs():
    # the child process does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cottonkit.cli", "verify", "--case", "a",
         "--what", "calibration", "--format", "text"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_check_report_roundtrips_losslessly():
    from cottonkit.report import CheckReport, report_from_dict

    rep = CheckReport(
        check_id="demo",
        max_residual=1.2345678901234e-11,
        tolerance=1e-9,
        passed=False,
        case="c+",
        params={"C": 1.0},
        grid="3 points",
        worst_point=[0.1, 2.0, -0.3],
        worst_value=1.2345678901234e-11,
        wall_time=0.25,
        details={"note": 7},
    ).hold_to(1e-9)
    assert report_from_dict(rep.to_dict()) == rep


def test_thorough_mode_repeats_scales():
    code, out, _ = run_cli(
        "verify", "--case", "a", "--what", "first-integral", "--thorough", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + C = 1, 0.25, 9


def test_cotton_non_string_component_exit_two(tmp_path):
    # a number where a component expression belongs gave an AttributeError traceback
    m = tmp_path / "numeric.json"
    m.write_text(json.dumps({"coordinates": ["t", "x", "y"], "components": {"t,t": 1, "x,x": "-1", "y,y": "-1"}}))
    code, out, err = run_cli("cotton", "--metric", str(m))
    assert (code, out) == (2, "")
    assert err == "error: syntax error at position 1: expected expression text, got int 1\n"


def test_killing_non_string_field_component_exit_two(tmp_path):
    # a number in a field gave a TypeError traceback
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({"fields": [[1, "0", "0"]]}))
    code, out, err = run_cli("killing", "--metric", str(_flat_metric(tmp_path)), "--fields", str(fields))
    assert (code, out) == (2, "")
    assert err == "error: syntax error at position 1: expected expression text, got int 1\n"


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_report_writes_the_chosen_format_to_stdout(tmp_path, monkeypatch, fmt):
    # --format csv and json wrote no body; the summary line goes to stderr
    import csv
    import io

    import cottonkit.cli as cli

    real = cli.run_checks
    monkeypatch.setattr(cli, "run_checks", lambda **kw: real(checks=["calibration", "kink-solver"], **kw))
    code, out, err = run_cli("report", "--stable-output", "--format", fmt, "--out", str(tmp_path))
    assert code == 0
    assert err == f"report.json + kink_profile.csv written to {tmp_path} (0 failed checks)\n"
    body = (tmp_path / "report.json").read_text(encoding="utf-8")
    keys = [(c["check_id"], c["case"] or "") for c in json.loads(body)["checks"]]
    assert len(keys) >= 2
    if fmt == "json":
        assert out == body
    elif fmt == "text":
        lines = out.splitlines()
        assert len(lines) == len(keys)
        assert all(line.startswith(f"PASS  {check_id}") for line, (check_id, _) in zip(lines, keys))
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check_id", "case", "max_residual", "tolerance", "passed"]
        assert [tuple(row[:2]) for row in rows[1:]] == keys


def test_report_help_calls_out_a_directory():
    code, out, _ = run_cli("report", "--help")
    assert code == 0
    assert "--out OUT directory for report.json and kink_profile.csv (default .)" in " ".join(out.split())
    code, out, _ = run_cli("verify", "--help")
    assert code == 0
    assert "--out OUT output path (stdout by default)" in " ".join(out.split())


@pytest.mark.parametrize("case, C", [("a", 4.0), ("c-", 0.25)])
def test_killing_fields_export_round_trips_with_its_metric(tmp_path, case, C):
    m3, fields = tmp_path / "m.json", tmp_path / "fields.json"
    for what, path in (("metric3d", m3), ("killing", fields)):
        code, _, _ = run_cli("catalog", "export", "--case", case, "--C", str(C), "--what", what, "--out", str(path))
        assert code == 0
    assert json.loads(fields.read_text())["parameters"] == {"C": C}
    code, out, err = run_cli("killing", "--metric", str(m3), "--fields", str(fields), "--format", "text")
    assert (code, err) == (0, "")
    assert out.count("PASS") == len(json.loads(fields.read_text())["fields"]) >= 4
    # the same fields against the metric at another coupling
    code, _, _ = run_cli("catalog", "export", "--case", case, "--C", "1", "--what", "metric3d", "--out", str(m3))
    code, out, err = run_cli("killing", "--metric", str(m3), "--fields", str(fields))
    assert (code, out) == (2, "")
    assert err == f"error: fields-file parameter C={C!r} is not in the metric's parameters {{'C': 1.0}}\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"coordinates": ["a", "b", "c"]}, "fields-file coordinates ['a', 'b', 'c'] do not match the metric's ['t', 'x', 'y']"),
        ({"coordinates": ["t", "x"]}, "fields-file coordinates ['t', 'x'] do not match the metric's ['t', 'x', 'y']"),
        ({"parameters": {"k": 2.0}}, "fields-file parameter k=2.0 is not in the metric's parameters {}"),
        ({"parameters": {"k": None}}, "fields-file parameter k=None is not in the metric's parameters {}"),
        ({"parameters": [1.0]}, "fields-file parameters must be an object, got [1.0]"),
    ],
)
def test_killing_fields_file_that_disagrees_with_the_metric_exit_two(tmp_path, payload, message):
    # both keys were read and ignored: a field in k gave "unresolved symbol 'k'",
    # and other coordinates passed
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({**payload, "fields": [["k" if "parameters" in payload else "1", "0", "0"]]}))
    code, out, err = run_cli("killing", "--metric", str(_flat_metric(tmp_path)), "--fields", str(fields))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
