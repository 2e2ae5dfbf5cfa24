import json
import subprocess
import sys

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


def test_catalog_export_case_b_gets_negative_C(tmp_path):
    out = tmp_path / "b.json"
    code, _, _ = run_cli("catalog", "export", "--case", "b", "--what", "metric3d", "--C", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["C"] == -2.0
    assert payload["parameters"]["absC"] == 2.0


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cottonkit.cli", "verify", "--case", "a",
         "--what", "calibration", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_check_report_roundtrips_losslessly():
    from cottonkit.report import make_report, report_from_dict

    rep = make_report(
        check_id="demo",
        max_residual=1.2345678901234e-11,
        tolerance=1e-9,
        case="c+",
        params={"C": 1.0},
        grid="3 points",
        worst_point=[0.1, 2.0, -0.3],
        wall_time=0.25,
        details={"note": 7},
    )
    assert report_from_dict(rep.to_dict()) == rep


def test_thorough_mode_repeats_scales():
    code, out, _ = run_cli(
        "verify", "--case", "a", "--what", "first-integral", "--thorough", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + C = 1, 0.25, 9
