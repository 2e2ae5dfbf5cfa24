"""Checks fail closed: a NaN residual is a FAIL, never a skipped value."""

import inspect
import math

import numpy as np
import pytest

from cottonkit import kink, reduction, suite, symmetry
from cottonkit.catalog import SolutionCase, killing_fields
from cottonkit.exprlang import parse_expr
from cottonkit.geometry import MetricSpec, flat_metric
from cottonkit.report import Span


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


def test_nan_fixed_step_error_fails_kink_convergence(monkeypatch):
    """A NaN integration step makes the refinement order NaN and a FAIL."""
    original = kink._dopri5_orbit

    def nan_past_09(C, y0, h, nsteps):
        Y, K = original(C, y0, h, nsteps)
        Y[np.abs(Y[:, 0]) > 0.9] = np.nan
        return Y, K

    monkeypatch.setattr(kink, "_dopri5_orbit", nan_past_09)
    rep = suite.check_kink_convergence(1.0)
    assert not rep.passed, rep.line()
    assert np.isnan(rep.max_residual)
    assert all(np.isnan(e) for e in rep.details["errors"])


def test_argworst_prefers_nan_and_first_maximum():
    assert suite._argworst([0.1, 0.3, 0.3]) == (0.3, 1)
    value, k = suite._argworst([0.1, np.nan, 5.0])
    assert np.isnan(value) and k == 1


def _nan_patch_gradient(fields, sites, h, gradient_fn):
    return {name: np.full(len(sites), np.nan) for name in fields}


def _lattice_rd():
    return reduction.ReducedData(
        g2=MetricSpec.from_components(
            ("t", "x"), {"t,t": "1+0.1*sin(t)*cos(x)", "t,x": "0", "x,x": "-1"}, env={"C": 1.0}
        ),
        a=(parse_expr("0.1*sin(x)"), parse_expr("0")),
    )


def test_nan_site_gradient_fails_lattice_checks(monkeypatch):
    monkeypatch.setattr(reduction, "_patch_gradient", _nan_patch_gradient)
    rep2 = reduction.lattice_variation_check_2d(_lattice_rd(), reduction.Lattice2D(0.0, 0.0, 12, 12), 2 * math.pi / 12)
    rep3 = reduction.lattice_cotton_variation_check_3d(flat_metric(), reduction.Lattice3D(8), 2 * math.pi / 8)
    for rep, per in ((rep2, "per_field"), (rep3, "per_component")):
        assert not rep.passed, rep.line()
        assert np.isnan(rep.max_residual)
        assert all(np.isnan(v) for v in rep.details[per].values())


def test_nan_lattice_field_value_fails_lattice_checks(monkeypatch):
    # one NaN field value at a varied site reaches the gradient unmasked
    original = reduction.eval_tensor
    seen = []

    def nan_at_first_site(exprs, bind):
        out = np.array(original(exprs, bind), dtype=float)
        if not seen:
            out[(0,) * out.ndim] = np.nan  # g_tt at the first site
        seen.append(exprs)
        return out

    monkeypatch.setattr(reduction, "eval_tensor", nan_at_first_site)
    rep2 = reduction.lattice_variation_check_2d(_lattice_rd(), reduction.Lattice2D(0.0, 0.0, 12, 12), 2 * math.pi / 12)
    seen.clear()
    rep3 = reduction.lattice_cotton_variation_check_3d(flat_metric(), reduction.Lattice3D(8), 2 * math.pi / 8)
    for rep in (rep2, rep3):
        assert not rep.passed, rep.line()
        assert np.isnan(rep.max_residual)


def test_nan_bracket_fails_killing_closure(monkeypatch):
    monkeypatch.setattr(symmetry, "_bracket_values", lambda X, Y: np.full(X.shape[1:], np.nan))
    case = SolutionCase("a", 1.0)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8)]
    assert np.isnan(symmetry.closure_residual(killing_fields(case), pts, env=dict(case.env)))
    reports = [r for r in suite.check_killing_fields(case) if r.check_id == "killing-closure"]
    assert reports and not any(r.passed for r in reports)


def test_killing_checks_use_the_requested_grid():
    # grid_n = 3 is inside the Killing clamp [3, 5]: every report uses 27 points
    reports = suite.run_checks(checks=["killing", "max-symmetry"], cases=["a"], grid_n=3)
    grids = {r.check_id: r.grid for r in reports}
    assert grids["killing"] == "4 fields x 27 points"
    assert grids["killing-intruder"] == grids["max-symmetry"] == "27 points"
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


def test_thorough_mode_runs_scale_free_checks_once(monkeypatch):
    # calibration, kink-solver and lift ignore C, so thorough mode must not repeat them
    calls = []

    def counting_stub():
        calls.append(1)
        return [Span().report("kink-solver", 0.0, 1.0)]

    monkeypatch.setattr(suite, "check_kink_solver", counting_stub)
    reports = suite.run_checks(checks=["calibration", "kink-solver", "lift"], thorough=True)
    assert len(calls) == 1
    keys = [(r.check_id, r.case) for r in reports]
    assert len(keys) == len(set(keys))


def _record_schedule(monkeypatch) -> list:
    """Stub every check function with a recorder of (check, case tag or kind, C)
    that returns one marker report, shaped like the real function's result."""
    calls = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            case = bound.arguments.get("case")
            if case is not None:
                calls.append((name, case.tag, case.C))
            else:
                tag = bound.arguments.get("case_tag", bound.arguments.get("kind"))
                calls.append((name, tag, bound.arguments.get("C")))
            marker = Span().report(name, 0.0, 0.0)
            return [marker] if fn.__annotations__["return"].startswith("list") else marker

        return record

    for name, fn in list(vars(suite).items()):
        if name.startswith("check_") and inspect.isfunction(fn):
            monkeypatch.setattr(suite, name, recorder(name[len("check_"):], fn))
    return calls


_SCHEDULE_DEFAULT = [
    ('calibration', None, None), ('cotton_vanishing', 'a', 1.0), ('cotton_vanishing', 'b', -1.0),
    ('cotton_vanishing', 'c+', 1.0), ('cotton_vanishing', 'c-', 1.0), ('cotton_vanishing', 'kink+', 1.0),
    ('cotton_vanishing', 'kink-', 1.0), ('cotton_control', None, None), ('cotton_identities', None, None),
    ('curvature', 'a', 1.0), ('curvature', 'b', -1.0), ('curvature', 'c+', 1.0), ('curvature', 'c-', 1.0),
    ('curvature', 'kink+', 1.0), ('curvature', 'kink-', 1.0), ('eom', 'a', 1.0), ('eom', 'b', -1.0),
    ('eom', 'c+', 1.0), ('eom', 'c-', 1.0), ('eom', 'kink+', 1.0), ('eom', 'kink-', 1.0),
    ('first_integral', 'a', 1.0), ('first_integral', 'b', -1.0), ('first_integral', 'c+', 1.0),
    ('first_integral', 'c-', 1.0), ('first_integral', 'kink+', 1.0), ('first_integral', 'kink-', 1.0),
    ('geometry_identities', None, None), ('jets_fd', None, None), ('killing_fields', 'a', 1.0),
    ('killing_fields', 'b', -1.0), ('killing_fields', 'c+', 1.0), ('killing_fields', 'c-', 1.0),
    ('killing_dimension', 'flat', 1.0), ('killing_dimension', 'a', 1.0), ('killing_dimension', 'b', 1.0),
    ('killing_dimension', 'c+', 1.0), ('killing_dimension', 'c-', 1.0), ('kink_convergence', None, 1.0),
    ('kink_solver', None, None), ('kk', 'a', 1.0), ('kk', 'b', -1.0), ('kk', 'c+', 1.0), ('kk', 'c-', 1.0),
    ('kk', 'kink+', 1.0), ('kk', 'kink-', 1.0), ('lattice_2d', 'random', 1.0),
    ('lattice_2d', 'solution', 1.0), ('lattice_3d', None, None), ('lift', 'phi4', None),
    ('lift', 'sine-gordon', None), ('max_symmetry', 'a', 1.0), ('max_symmetry', 'b', -1.0),
    ('max_symmetry', 'c+', 1.0), ('max_symmetry', 'c-', 1.0), ('max_symmetry', 'kink+', 1.0),
    ('max_symmetry', 'kink-', 1.0), ('parser_roundtrip', None, None), ('transform', 'a', 1.0),
    ('transform', 'b', -1.0), ('transform', 'c+', 1.0), ('transform', 'c-', 1.0),
    ('transform', 'kink+', 1.0), ('transform', 'kink-', 1.0), ('transform_limit', None, 1.0),
]

_SCHEDULE_THOROUGH = [
    ('calibration', None, None), ('cotton_vanishing', 'a', 1.0), ('cotton_vanishing', 'b', -1.0),
    ('cotton_vanishing', 'c+', 1.0), ('cotton_vanishing', 'c-', 1.0), ('cotton_vanishing', 'kink+', 1.0),
    ('cotton_vanishing', 'kink-', 1.0), ('cotton_vanishing', 'a', 0.25), ('cotton_vanishing', 'b', -0.25),
    ('cotton_vanishing', 'c+', 0.25), ('cotton_vanishing', 'c-', 0.25), ('cotton_vanishing', 'kink+', 0.25),
    ('cotton_vanishing', 'kink-', 0.25), ('cotton_vanishing', 'a', 9.0), ('cotton_vanishing', 'b', -9.0),
    ('cotton_vanishing', 'c+', 9.0), ('cotton_vanishing', 'c-', 9.0), ('cotton_vanishing', 'kink+', 9.0),
    ('cotton_vanishing', 'kink-', 9.0), ('cotton_control', None, None), ('cotton_identities', None, None),
    ('curvature', 'a', 1.0), ('curvature', 'b', -1.0), ('curvature', 'c+', 1.0), ('curvature', 'c-', 1.0),
    ('curvature', 'kink+', 1.0), ('curvature', 'kink-', 1.0), ('curvature', 'a', 0.25),
    ('curvature', 'b', -0.25), ('curvature', 'c+', 0.25), ('curvature', 'c-', 0.25),
    ('curvature', 'kink+', 0.25), ('curvature', 'kink-', 0.25), ('curvature', 'a', 9.0),
    ('curvature', 'b', -9.0), ('curvature', 'c+', 9.0), ('curvature', 'c-', 9.0),
    ('curvature', 'kink+', 9.0), ('curvature', 'kink-', 9.0), ('eom', 'a', 1.0), ('eom', 'b', -1.0),
    ('eom', 'c+', 1.0), ('eom', 'c-', 1.0), ('eom', 'kink+', 1.0), ('eom', 'kink-', 1.0), ('eom', 'a', 0.25),
    ('eom', 'b', -0.25), ('eom', 'c+', 0.25), ('eom', 'c-', 0.25), ('eom', 'kink+', 0.25),
    ('eom', 'kink-', 0.25), ('eom', 'a', 9.0), ('eom', 'b', -9.0), ('eom', 'c+', 9.0), ('eom', 'c-', 9.0),
    ('eom', 'kink+', 9.0), ('eom', 'kink-', 9.0), ('first_integral', 'a', 1.0),
    ('first_integral', 'b', -1.0), ('first_integral', 'c+', 1.0), ('first_integral', 'c-', 1.0),
    ('first_integral', 'kink+', 1.0), ('first_integral', 'kink-', 1.0), ('first_integral', 'a', 0.25),
    ('first_integral', 'b', -0.25), ('first_integral', 'c+', 0.25), ('first_integral', 'c-', 0.25),
    ('first_integral', 'kink+', 0.25), ('first_integral', 'kink-', 0.25), ('first_integral', 'a', 9.0),
    ('first_integral', 'b', -9.0), ('first_integral', 'c+', 9.0), ('first_integral', 'c-', 9.0),
    ('first_integral', 'kink+', 9.0), ('first_integral', 'kink-', 9.0), ('geometry_identities', None, None),
    ('jets_fd', None, None), ('killing_fields', 'a', 1.0), ('killing_fields', 'b', -1.0),
    ('killing_fields', 'c+', 1.0), ('killing_fields', 'c-', 1.0), ('killing_fields', 'a', 0.25),
    ('killing_fields', 'b', -0.25), ('killing_fields', 'c+', 0.25), ('killing_fields', 'c-', 0.25),
    ('killing_fields', 'a', 9.0), ('killing_fields', 'b', -9.0), ('killing_fields', 'c+', 9.0),
    ('killing_fields', 'c-', 9.0), ('killing_dimension', 'flat', 1.0), ('killing_dimension', 'a', 1.0),
    ('killing_dimension', 'b', 1.0), ('killing_dimension', 'c+', 1.0), ('killing_dimension', 'c-', 1.0),
    ('killing_dimension', 'flat', 0.25), ('killing_dimension', 'a', 0.25), ('killing_dimension', 'b', 0.25),
    ('killing_dimension', 'c+', 0.25), ('killing_dimension', 'c-', 0.25), ('killing_dimension', 'flat', 9.0),
    ('killing_dimension', 'a', 9.0), ('killing_dimension', 'b', 9.0), ('killing_dimension', 'c+', 9.0),
    ('killing_dimension', 'c-', 9.0), ('kink_convergence', None, 1.0), ('kink_convergence', None, 0.25),
    ('kink_convergence', None, 9.0), ('kink_solver', None, None), ('kk', 'a', 1.0), ('kk', 'b', -1.0),
    ('kk', 'c+', 1.0), ('kk', 'c-', 1.0), ('kk', 'kink+', 1.0), ('kk', 'kink-', 1.0), ('kk', 'a', 0.25),
    ('kk', 'b', -0.25), ('kk', 'c+', 0.25), ('kk', 'c-', 0.25), ('kk', 'kink+', 0.25), ('kk', 'kink-', 0.25),
    ('kk', 'a', 9.0), ('kk', 'b', -9.0), ('kk', 'c+', 9.0), ('kk', 'c-', 9.0), ('kk', 'kink+', 9.0),
    ('kk', 'kink-', 9.0), ('lattice_2d', 'random', 1.0), ('lattice_2d', 'solution', 1.0),
    ('lattice_2d', 'solution', 0.25), ('lattice_2d', 'solution', 9.0), ('lattice_3d', None, None), ('lift', 'phi4', None),
    ('lift', 'sine-gordon', None), ('max_symmetry', 'a', 1.0), ('max_symmetry', 'b', -1.0),
    ('max_symmetry', 'c+', 1.0), ('max_symmetry', 'c-', 1.0), ('max_symmetry', 'kink+', 1.0),
    ('max_symmetry', 'kink-', 1.0), ('max_symmetry', 'a', 0.25), ('max_symmetry', 'b', -0.25),
    ('max_symmetry', 'c+', 0.25), ('max_symmetry', 'c-', 0.25), ('max_symmetry', 'kink+', 0.25),
    ('max_symmetry', 'kink-', 0.25), ('max_symmetry', 'a', 9.0), ('max_symmetry', 'b', -9.0),
    ('max_symmetry', 'c+', 9.0), ('max_symmetry', 'c-', 9.0), ('max_symmetry', 'kink+', 9.0),
    ('max_symmetry', 'kink-', 9.0), ('parser_roundtrip', None, None), ('transform', 'a', 1.0),
    ('transform', 'b', -1.0), ('transform', 'c+', 1.0), ('transform', 'c-', 1.0),
    ('transform', 'kink+', 1.0), ('transform', 'kink-', 1.0), ('transform', 'a', 0.25),
    ('transform', 'b', -0.25), ('transform', 'c+', 0.25), ('transform', 'c-', 0.25),
    ('transform', 'kink+', 0.25), ('transform', 'kink-', 0.25), ('transform', 'a', 9.0),
    ('transform', 'b', -9.0), ('transform', 'c+', 9.0), ('transform', 'c-', 9.0),
    ('transform', 'kink+', 9.0), ('transform', 'kink-', 9.0), ('transform_limit', None, 1.0),
    ('transform_limit', None, 0.25), ('transform_limit', None, 9.0),
]

_SCHEDULE_CASE_A = [
    ('calibration', None, None), ('cotton_vanishing', 'a', 1.0), ('cotton_control', None, None),
    ('cotton_identities', None, None), ('curvature', 'a', 1.0), ('eom', 'a', 1.0),
    ('first_integral', 'a', 1.0), ('geometry_identities', None, None), ('jets_fd', None, None),
    ('killing_fields', 'a', 1.0), ('killing_dimension', 'a', 1.0), ('kink_convergence', None, 1.0),
    ('kink_solver', None, None), ('kk', 'a', 1.0), ('lattice_2d', 'random', 1.0),
    ('lattice_2d', 'solution', 1.0), ('lattice_3d', None, None), ('lift', 'phi4', None),
    ('lift', 'sine-gordon', None), ('max_symmetry', 'a', 1.0), ('parser_roundtrip', None, None),
    ('transform', 'a', 1.0), ('transform_limit', None, 1.0),
]

_SCHEDULE_CASE_KINK = [
    ('calibration', None, None), ('cotton_vanishing', 'kink+', 1.0), ('cotton_control', None, None),
    ('cotton_identities', None, None), ('curvature', 'kink+', 1.0), ('eom', 'kink+', 1.0),
    ('first_integral', 'kink+', 1.0), ('geometry_identities', None, None), ('jets_fd', None, None),
    ('kink_convergence', None, 1.0), ('kink_solver', None, None), ('kk', 'kink+', 1.0),
    ('lattice_2d', 'random', 1.0), ('lattice_2d', 'solution', 1.0), ('lattice_3d', None, None),
    ('lift', 'phi4', None), ('lift', 'sine-gordon', None), ('max_symmetry', 'kink+', 1.0),
    ('parser_roundtrip', None, None), ('transform', 'kink+', 1.0), ('transform_limit', None, 1.0),
]


@pytest.mark.parametrize(
    "kwargs, expected",
    [
        ({}, _SCHEDULE_DEFAULT),
        ({"thorough": True}, _SCHEDULE_THOROUGH),
        ({"cases": ["a"]}, _SCHEDULE_CASE_A),
        ({"cases": ["kink+"]}, _SCHEDULE_CASE_KINK),
    ],
    ids=["default", "thorough", "case-a", "case-kink"],
)
def test_run_checks_dispatch_schedule(monkeypatch, kwargs, expected):
    """The exact order of check calls; reports come back in run order, which
    decides the JSON order of reports sharing a (check_id, case) key."""
    calls = _record_schedule(monkeypatch)
    reports = suite.run_checks(**kwargs)
    assert calls == expected
    assert [r.check_id for r in reports] == [name for name, _, _ in calls]
