import math

import numpy as np
import pytest

from cottonkit.catalog import (
    CASE_TAGS,
    SolutionCase,
    canonical_tag,
    export_case,
    killing_fields,
    solution_2d,
    solution_3d,
    standard_grid,
    transform,
    transform_grid,
)
from cottonkit.exprlang import _expr_jet, coordinate_seeds, eval_array
from cottonkit.geometry import (
    MetricSpec,
    curvature_grid,
    metric_from_dict,
    metric_values_grid,
    pullback_metric_at,
)
from cottonkit.reduction import assemble_3d_metric, eom_grid, reduced_from_dict
from cottonkit.symmetry import killing_residual_values


ALL_CASES = [SolutionCase(tag, -1.3 if tag == "b" else 1.3) for tag in CASE_TAGS]


def test_tag_aliases_and_sign_constraints():
    assert canonical_tag("Kink") == "kink+"
    assert canonical_tag("CPLUS") == "c+"
    with pytest.raises(ValueError):
        SolutionCase("a", -1.0)
    with pytest.raises(ValueError):
        SolutionCase("b", 1.0)
    with pytest.raises(ValueError):
        SolutionCase("nope", 1.0)


@pytest.mark.parametrize("tag", ["a", "b", "kink+"])
@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_non_finite_coupling_rejected(tag, C):
    # a NaN passed both sign tests of every branch
    with pytest.raises(ValueError, match="C must be finite"):
        SolutionCase(tag, C)


def test_expected_field_values():
    case = SolutionCase("a", 2.0)
    sol = solution_2d(case)
    assert eval_array(sol.r_expected, {"x": 0.3, **case.env}) == pytest.approx(2.0)

    case = SolutionCase("c+", 1.0)
    sol = solution_2d(case)
    assert eval_array(sol.f_expected, {"x": 1.0, **case.env}) == pytest.approx(1.0)
    assert eval_array(sol.r_expected, {"x": 1.0, **case.env}) == pytest.approx(-2.0)

    case = SolutionCase("kink+", 1.0)
    sol = solution_2d(case)
    assert eval_array(sol.f_expected, {"x": 2.0, **case.env}) == pytest.approx(math.tanh(1.0))


def test_expected_R_values():
    assert eval_array(solution_3d(SolutionCase("a", 1.0)).R_expected, {"x": 0.5, "C": 1.0}) == pytest.approx(1.0)
    assert eval_array(solution_3d(SolutionCase("c+", 4.0)).R_expected, {"x": 0.5, "C": 4.0}) == pytest.approx(-6.0)
    # the kink curvature approaches the symmetry-breaking value at large x
    R_inf = eval_array(solution_3d(SolutionCase("kink+", 1.0)).R_expected, {"x": 40.0, "C": 1.0})
    assert R_inf == pytest.approx(-1.5, abs=1e-12)


@pytest.mark.parametrize("case", ALL_CASES, ids=[c.tag for c in ALL_CASES])
def test_assembled_matches_printed_3d_metric(case):
    sol2 = solution_2d(case)
    sol3 = solution_3d(case)
    m3 = assemble_3d_metric(sol2.rd)
    grid = standard_grid(case, 3, n=4)[::4][:50]
    got = metric_values_grid(m3, grid)
    want = metric_values_grid(sol3.metric, grid)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("case", ALL_CASES, ids=[c.tag for c in ALL_CASES])
def test_field_strength_matches_expected_formula(case):
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n=5)
    out = eom_grid(sol.rd, grid)
    want = np.broadcast_to(
        np.asarray(eval_array(sol.f_expected, {"t": grid[:, 0], "x": grid[:, 1], **case.env})),
        (len(grid),),
    )
    scale = 1.0 + np.abs(want)
    assert np.max(np.abs(out["f"] - want) / scale) < 1e-10


@pytest.mark.parametrize("case", ALL_CASES, ids=[c.tag for c in ALL_CASES])
def test_curvature_matches_expected_formulas(case):
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n=5)
    out = eom_grid(sol.rd, grid)
    want = np.broadcast_to(
        np.asarray(eval_array(sol.r_expected, {"t": grid[:, 0], "x": grid[:, 1], **case.env})),
        (len(grid),),
    )
    assert np.max(np.abs(out["r"] - want) / (1.0 + np.abs(want))) < 1e-9

    sol3 = solution_3d(case)
    grid3 = standard_grid(case, 3, n=4)
    R = curvature_grid(sol3.metric, grid3)["scalar"]
    want3 = np.broadcast_to(
        np.asarray(eval_array(sol3.R_expected, {"t": grid3[:, 0], "x": grid3[:, 1], "y": grid3[:, 2], **case.env})),
        (len(grid3),),
    )
    assert np.max(np.abs(R - want3) / (1.0 + np.abs(want3))) < 1e-9


@pytest.mark.parametrize("case", ALL_CASES, ids=[c.tag for c in ALL_CASES])
def test_pullback_reproduces_case_metric(case):
    tr = transform(case)
    from cottonkit.exprlang import to_text

    ft = to_text(tr.conformal_factor)
    target = MetricSpec.from_components(
        ("T", "X", "Y"),
        {"T,T": ft, "X,X": f"-({ft})", "Y,Y": f"-({ft})"},
        env=tr.env,
    )
    sol3 = solution_3d(case)
    grid = [p for p in transform_grid(case, n=4) if tr.in_domain(p)][:40]
    gvals = metric_values_grid(sol3.metric, np.array(grid))
    for k, p in enumerate(grid):
        pb = pullback_metric_at(tr.components, tr.source_coords, target, p, env=tr.env)
        scale = 1.0 + np.max(np.abs(gvals[..., k]))
        assert np.max(np.abs(pb - gvals[..., k])) / scale < 1e-9


def test_case_b_identity_slice():
    tr = transform(SolutionCase("b", -1.0))
    bind = {"t": 0.7, "x": 1.2, "y": 0.0, **tr.env}
    T, X, Y = (eval_array(c, bind) for c in tr.components)
    assert (T, X, Y) == (pytest.approx(0.7), pytest.approx(1.2), pytest.approx(0.0))


def test_case_a_transform_point():
    tr = transform(SolutionCase("a", 1.0))
    bind = {"t": 1.0, "x": 0.0, "y": 0.0, **tr.env}
    T, X, Y = (float(eval_array(c, bind)) for c in tr.components)
    assert (T, X, Y) == (pytest.approx(1.0), pytest.approx(0.0), pytest.approx(0.0))
    omega = eval_array(tr.conformal_factor, {"T": T, "X": X, "Y": Y, **tr.env})
    assert omega == pytest.approx(2.0)


def test_kink_factor_tends_to_constant_branch():
    trk = transform(SolutionCase("kink+", 1.0))
    trc = transform(SolutionCase("c+", 1.0))
    x = 2.0 * math.asinh(50.0 * math.cosh(0.25))
    bind = {"t": 0.3, "x": x, "y": 0.5, **trk.env}
    img = {n: float(eval_array(c, bind)) for n, c in zip(trk.target_coords, trk.components)}
    img.update(trk.env)
    fk = float(eval_array(trk.conformal_factor, img))
    fc = float(eval_array(trc.conformal_factor, img))
    assert abs(fk / fc - 1.0) < 0.01


# -- Killing data ------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["a", "b", "c+", "c-"])
def test_catalog_killing_fields_validate(tag):
    case = SolutionCase(tag, -1.0 if tag == "b" else 1.0)
    fields = killing_fields(case)
    assert len(fields) == (6 if tag.startswith("c") else 4)
    m = solution_3d(case).metric
    grid = standard_grid(case, 3, n=4)
    for xi in fields:
        assert np.max(killing_residual_values(m, xi, grid)) < 1e-9


def test_kink_case_has_no_killing_basis():
    with pytest.raises(ValueError):
        killing_fields(SolutionCase("kink+", 1.0))


def test_case_c_fields_match_numeric_transport():
    """Oracle for the stored closed forms: transport the six conformal-chart
    generators through the inverse Jacobian of the map and compare spans."""
    C = 1.3
    case = SolutionCase("c+", C)
    tr = transform(case)
    fields = killing_fields(case)

    def chart_generators(T, X, Y):
        u, v = T + Y, T - Y
        gens_uvx = [
            (1, 0, 0),
            (0, 1, 0),
            (u, -v, 0),
            (u, v, X),
            (u * u, X * X, u * X),
            (X * X, v * v, v * X),
        ]
        out = []
        for gu, gv, gx in gens_uvx:
            out.append(((gu + gv) / 2.0, gx, (gu - gv) / 2.0))  # to (T, X, Y)
        return out

    rng = np.random.default_rng(0)
    for p in [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)]:
        seeds = coordinate_seeds(tr.source_coords, p, tr.env, 1)
        imgs = [_expr_jet(c, seeds) for c in tr.components]
        J = np.array(
            [[float(np.asarray(im.derivative(a).coeffs[0])) for a in range(3)] for im in imgs]
        )
        U = [float(np.asarray(im.coeffs[0])) for im in imgs]
        transported = np.array(
            [np.linalg.solve(J, np.array(g)) for g in chart_generators(*U)]
        )
        catalog_vals = np.array(
            [
                [float(_expr_jet(c, seeds).coeffs[0]) for c in xi.components]
                for xi in fields
            ]
        )
        stacked = np.vstack([transported, catalog_vals])
        s = np.linalg.svd(stacked, compute_uv=False)
        # same 3-dimensional pointwise span... both sets must lie in each
        # other's span over several points; compare span dimension growth
        s_t = np.linalg.svd(transported, compute_uv=False)
        rank_t = int(np.sum(s_t > 1e-10 * s_t[0]))
        rank_all = int(np.sum(s > 1e-10 * s[0]))
        assert rank_all == rank_t


def test_exports_roundtrip_into_loaders():
    case = SolutionCase("c+", 1.0)
    m3 = metric_from_dict(export_case(case, "metric3d"))
    rd = reduced_from_dict(export_case(case, "metric2d"))
    tr = export_case(case, "transform")
    kf = export_case(case, "killing")
    assert m3.dim == 3 and rd.g2.dim == 2
    assert tr["domain"] == "x>0"
    assert len(kf["fields"]) == 6
    with pytest.raises(ValueError):
        export_case(case, "bogus")
