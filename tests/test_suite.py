"""Checks fail closed: a NaN residual is a FAIL, never a skipped value."""

import math

import numpy as np
import pytest

from cottonkit import reduction, suite, symmetry
from cottonkit.catalog import SolutionCase, killing_fields
from cottonkit.exprlang import parse_expr
from cottonkit.geometry import MetricSpec, flat_metric


def _cotton_grid_stub(fill):
    return lambda m, pts, order=3: {"cotton": np.full((3, 3, len(pts)), fill)}


def _killing_values_stub(fill):
    return lambda m, xi, grid: np.full(len(grid), fill)


def _curvature_grid_stub(fill):
    def stub(m, pts, order=2):
        n = len(pts)
        return {"ricci": np.full((3, 3, n), fill), "scalar": np.full(n, fill)}

    return stub


def _cotton_control():
    return [suite.check_cotton_control()]


def _killing_reports():
    return suite.check_killing_fields(SolutionCase("a", 1.0))


def _max_symmetry():
    return [suite.check_max_symmetry(SolutionCase("a", 1.0))]


@pytest.mark.parametrize(
    "check_id, stub_name, stub, run, fill",
    [
        pytest.param(check_id, stub_name, stub, run, fill, id=check_id + ("" if np.isnan(fill) else ":inf"))
        for check_id, stub_name, stub, run, fills in [
            ("cotton-control", "cotton_grid", _cotton_grid_stub, _cotton_control, (np.nan, np.inf)),
            ("killing", "killing_residual_values", _killing_values_stub, _killing_reports, (np.nan,)),
            ("killing-intruder", "killing_residual_values", _killing_values_stub, _killing_reports, (np.nan, np.inf)),
            ("max-symmetry", "curvature_grid", _curvature_grid_stub, _max_symmetry, (np.nan,)),
        ]
        for fill in fills
    ],
)
def test_nan_residual_fails_check(monkeypatch, check_id, stub_name, stub, run, fill):
    """A NaN residual, or an inf observation in a negative control, is a FAIL."""
    monkeypatch.setattr(suite, stub_name, stub(fill))
    reports = [r for r in run() if r.check_id == check_id]
    assert reports, f"{check_id} produced no report"
    for r in reports:
        assert not r.passed, r.line()
        assert np.isnan(r.max_residual)


def test_argworst_prefers_nan_and_first_maximum():
    assert suite._argworst([0.1, 0.3, 0.3]) == (0.3, 1)
    value, k = suite._argworst([0.1, np.nan, 5.0])
    assert np.isnan(value) and k == 1


def _nan_patch_gradient(fields, name, sites, h, density_fn, eps_scale=1e-6):
    return np.full(len(sites), np.nan)


def test_nan_site_gradient_fails_lattice_checks(monkeypatch):
    monkeypatch.setattr(reduction, "_patch_gradient", _nan_patch_gradient)
    rd = reduction.ReducedData(
        g2=MetricSpec.from_components(
            ("t", "x"), {"t,t": "1+0.1*sin(t)*cos(x)", "t,x": "0", "x,x": "-1"}, env={"C": 1.0}
        ),
        a=(parse_expr("0.1*sin(x)"), parse_expr("0")),
    )
    rep2 = reduction.lattice_variation_check_2d(rd, reduction.Lattice2D(0.0, 0.0, 12, 12), 2 * math.pi / 12)
    rep3 = reduction.lattice_cotton_variation_check_3d(flat_metric(), reduction.Lattice3D(8), 2 * math.pi / 8)
    for rep, per in ((rep2, "per_field"), (rep3, "per_component")):
        assert not rep.passed, rep.line()
        assert np.isnan(rep.max_residual)
        assert all(np.isnan(v) for v in rep.details[per].values())


def test_nan_bracket_fails_killing_closure(monkeypatch):
    monkeypatch.setattr(symmetry, "_bracket_values", lambda xi, eta, p, dim, *a, **k: np.full(dim, np.nan))
    case = SolutionCase("a", 1.0)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8)]
    assert np.isnan(symmetry.closure_residual(killing_fields(case), pts, env=dict(case.env)))
    reports = [r for r in suite.check_killing_fields(case) if r.check_id == "killing-closure"]
    assert reports and not any(r.passed for r in reports)
