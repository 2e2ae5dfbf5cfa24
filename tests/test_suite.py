"""Checks fail closed: a NaN residual is a FAIL, never a skipped value."""

import numpy as np
import pytest

from cottonkit import suite
from cottonkit.catalog import SolutionCase


def _nan_cotton_grid(m, pts, order=3):
    return {"cotton": np.full((3, 3, len(pts)), np.nan)}


def _nan_killing_values(m, xi, grid):
    return np.full(len(grid), np.nan)


def _nan_curvature_grid(m, pts, order=2):
    n = len(pts)
    return {"ricci": np.full((3, 3, n), np.nan), "scalar": np.full(n, np.nan)}


def _cotton_control():
    return [suite.check_cotton_control()]


def _killing_reports():
    return suite.check_killing_fields(SolutionCase("a", 1.0))


def _max_symmetry():
    return [suite.check_max_symmetry(SolutionCase("a", 1.0))]


@pytest.mark.parametrize(
    "check_id, stub_name, stub, run",
    [
        pytest.param(check_id, stub_name, stub, run, id=check_id)
        for check_id, stub_name, stub, run in [
            ("cotton-control", "cotton_grid", _nan_cotton_grid, _cotton_control),
            ("killing", "killing_residual_values", _nan_killing_values, _killing_reports),
            ("killing-intruder", "killing_residual_values", _nan_killing_values, _killing_reports),
            ("max-symmetry", "curvature_grid", _nan_curvature_grid, _max_symmetry),
        ]
    ],
)
def test_nan_residual_fails_check(monkeypatch, check_id, stub_name, stub, run):
    monkeypatch.setattr(suite, stub_name, stub)
    reports = [r for r in run() if r.check_id == check_id]
    assert reports, f"{check_id} produced no report"
    for r in reports:
        assert not r.passed, r.line()
        assert np.isnan(r.max_residual)


def test_argworst_prefers_nan_and_first_maximum():
    assert suite._argworst([0.1, 0.3, 0.3]) == (0.3, 1)
    value, k = suite._argworst([0.1, np.nan, 5.0])
    assert np.isnan(value) and k == 1
