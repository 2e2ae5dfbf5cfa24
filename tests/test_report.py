"""The report module's seams: its one renderer, pinned to the bytes the CLI
wrote before rendering moved into ``report``, and the dict round trip."""

import json
import math

import pytest

from cottonkit.cli import RunConfig, main
from cottonkit.report import CheckReport, render, report_from_dict


def _reports():
    """A NaN residual, a report with no case and nested details, and two
    reports of one check id out of output order."""
    return [
        CheckReport(
            "kink-solver", 3.5e-12, 0.0, False, details={"rounds": 9, "bracket": {"lo": 0.5, "hi": [0.75, None]}},
            wall_time=0.125,
        ).hold_to(1e-9),
        CheckReport(
            "cotton", math.nan, 0.0, True, case="c+", params={"C": 1.0}, grid="3 points",
            worst_point=[0.5, 1.0, -0.25], worst_value=math.nan, wall_time=0.5,
        ).hold_to(1e-8),
        CheckReport(
            "cotton", 2.0e-13, 0.0, False, case="a", params={"C": 2.0}, grid="27 points",
            worst_point=[0.1, 0.2, 0.3], worst_value=-2.0e-13, wall_time=0.25,
        ).hold_to(1e-8),
    ]


_CONFIG = RunConfig(C=2.0, out="runs/one", stable_output=True, checks=["cotton"]).to_dict()

_JSON = """{
  "checks": [
    {
      "case": "a",
      "check_id": "cotton",
      "details": {},
      "grid": "27 points",
      "max_residual": 2e-13,
      "params": {
        "C": 2.0
      },
      "passed": true,
      "tolerance": 1e-08,
      "worst_point": [
        0.1,
        0.2,
        0.3
      ],
      "worst_value": -2e-13
    },
    {
      "case": "c+",
      "check_id": "cotton",
      "details": {},
      "grid": "3 points",
      "max_residual": NaN,
      "params": {
        "C": 1.0
      },
      "passed": false,
      "tolerance": 1e-08,
      "worst_point": [
        0.5,
        1.0,
        -0.25
      ],
      "worst_value": NaN
    },
    {
      "case": null,
      "check_id": "kink-solver",
      "details": {
        "bracket": {
          "hi": [
            0.75,
            null
          ],
          "lo": 0.5
        },
        "rounds": 9
      },
      "grid": "",
      "max_residual": 3.5e-12,
      "params": {},
      "passed": true,
      "tolerance": 1e-09,
      "worst_point": null,
      "worst_value": null
    }
  ],
  "config": {
    "C": 2.0,
    "cases": null,
    "checks": [
      "cotton"
    ],
    "format": "json",
    "grid_n": 7,
    "stable_output": true,
    "thorough": false,
    "tol": null
  },
  "failed": 1,
  "schema": "cottonkit/1"
}
"""

_TEXT = (
    "PASS  cotton [a]: max residual 2.000e-13 (tol 1.0e-08)\n"
    "FAIL  cotton [c+]: max residual nan (tol 1.0e-08)\n"
    "PASS  kink-solver: max residual 3.500e-12 (tol 1.0e-09)\n"
)

_CSV = (
    "check_id,case,max_residual,tolerance,passed\n"
    "cotton,a,2e-13,1e-08,True\n"
    "cotton,c+,nan,1e-08,False\n"
    "kink-solver,,3.5e-12,1e-09,True\n"
)


def test_render_golden_json_drops_out_and_wall_time():
    assert render(_reports(), "json", _CONFIG, stable=True) == _JSON


def test_render_json_keeps_wall_time_unless_stable():
    payload = json.loads(render(_reports(), "json", _CONFIG))
    assert [c["wall_time"] for c in payload["checks"]] == [0.25, 0.5, 0.125]
    assert "config" not in json.loads(render(_reports(), "json"))


@pytest.mark.parametrize("fmt, golden", [("text", _TEXT), ("csv", _CSV)])
def test_render_golden_text_and_csv_ignore_config(fmt, golden):
    assert render(_reports(), fmt) == golden
    assert render(_reports(), fmt, _CONFIG, stable=True) == golden


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="yaml"):
        render(_reports(), "yaml")


@pytest.mark.parametrize("stable", [True, False])
def test_check_report_dict_round_trip(stable):
    for r in _reports():
        d = r.to_dict(stable=stable)
        # json compares the NaN residual as text
        assert json.dumps(CheckReport(**d).to_dict(stable=stable)) == json.dumps(d)
        assert json.dumps(report_from_dict(d).to_dict(stable=stable)) == json.dumps(d)


def test_check_report_from_dict_rejects_unknown_key():
    d = _reports()[0].to_dict()
    with pytest.raises(TypeError, match="colour"):
        CheckReport(**{**d, "colour": "red"})
    with pytest.raises(TypeError, match="colour"):
        report_from_dict({**d, "colour": "red"})


_OUTPUT_OPTIONS = ["--tol", "--format", "--out", "--stable-output"]
_RUN_OPTIONS = ["--C", "--grid", "--thorough", "--config"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("verify", _OUTPUT_OPTIONS + _RUN_OPTIONS + ["--case", "--what"]),
        ("report", _OUTPUT_OPTIONS + _RUN_OPTIONS),
        ("cotton", _OUTPUT_OPTIONS + ["--metric", "--grid"]),
        ("killing", _OUTPUT_OPTIONS + ["--metric", "--fields", "--grid"]),
        ("solve", ["--out", "--tol", "--C"]),
        ("lift", ["--out", "--potential", "--vacua"]),
        ("killing-dim", ["--metric", "--point", "--depth"]),
        ("catalog", ["--out", "--case", "--what", "--C"]),
    ],
)
def test_every_subcommand_help_lists_its_options(command, options, capsys):
    assert main([command, "--help"]) == 0
    listed = capsys.readouterr().out
    for option in options:
        assert f" {option}" in listed, (command, option)
