import math
import re

import numpy as np
import pytest

from fd_oracles import christoffel_fd, cotton_fd, metric_jet_per_component
from cottonkit.exprlang import ExprEvalError, parse_expr
from cottonkit.geometry import (
    DegenerateMetricError,
    GeometryError,
    MetricSpec,
    christoffel_at,
    cotton_at,
    cotton_grid,
    cotton_identities_check,
    covariant_hessian_at,
    curvature_at,
    curvature_grid,
    dump_metric,
    flat_metric,
    load_metric,
    metric_from_dict,
    pullback_metric_at,
    pullback_metric_grid,
)
from cottonkit.oracles import random_smooth_metric


def case_a_2d(C):
    return MetricSpec.from_components(
        ("t", "x"), {"t,t": "2/(C*t^2)", "x,x": "-2/(C*t^2)"}, env={"C": C}
    )


def kink_2d(C=1.0):
    return MetricSpec.from_components(
        ("t", "x"), {"t,t": "1/cosh(sqrt(C)/2*x)^4", "x,x": "-1"}, env={"C": C}
    )


def case_c_3d(C=1.0):
    return MetricSpec.from_components(
        ("t", "x", "y"),
        {"t,y": "-1/(sqrt(C)*x)", "x,x": "-1/(C*x^2)", "y,y": "-1"},
        env={"C": C},
    )


# -- construction and validation ------------------------------------------------


def test_metric_spec_components_shared_and_validated():
    m = case_a_2d(1.0)
    assert m.components[0][1] is m.components[1][0]
    with pytest.raises(GeometryError):
        MetricSpec.from_components(("t", "x"), {"t,t": "Q*t"})  # unresolved symbol


def test_metric_file_roundtrip(tmp_path):
    m = case_c_3d(2.0)
    path = tmp_path / "m.json"
    dump_metric(m, path)
    back = load_metric(path)
    p = (0.3, 1.1, -0.4)
    np.testing.assert_allclose(curvature_at(back, p).g, curvature_at(m, p).g)
    with pytest.raises(GeometryError):
        metric_from_dict({"coordinates": ["t", "x"], "components": {}, "bogus": 1})


def test_degenerate_metric_detected():
    m = MetricSpec.from_components(("t", "x"), {"t,t": "t", "x,x": "-1"})
    with pytest.raises(DegenerateMetricError):
        curvature_at(m, (0.0, 1.0))


def test_degenerate_point_is_named_by_the_pipeline_on_a_tensor_jet():
    # the engine takes the metric's tensor jet and names the point it is given
    from cottonkit.geometry import _Pipeline

    m = MetricSpec.from_components(("t", "x"), {"t,t": "t", "x,x": "-1"})  # det = -t
    with pytest.raises(DegenerateMetricError, match=re.escape("metric degenerate at (0.0, 1.0) (det = -0)")):
        curvature_at(m, (0.0, 1.0))
    for point, named in (((0.0, 1.0), "(0.0, 1.0)"), ((np.array([0.5, 0.0]), np.array([2.0, 3.0])), "(0.0, 3.0)")):
        pipe = _Pipeline(metric_jet_per_component(m, point, 2), 1, point)
        with pytest.raises(DegenerateMetricError, match=re.escape(f"metric degenerate at {named}")):
            pipe.det


def _metric_jet_cases():
    """Every catalog metric (2D and 3D, C = 1) on 343 points of its standard
    3D grid, and a random smooth metric in 2D and in 3D."""
    from cottonkit.catalog import CASE_TAGS, SolutionCase, solution_2d, solution_3d, standard_grid

    out = []
    for tag in CASE_TAGS:
        case = SolutionCase.at(tag, 1.0)
        pts = standard_grid(case, 3, 7)
        out += [(solution_2d(case).rd.g2, pts[:, :2]), (solution_3d(case).metric, pts)]
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        out.append((random_smooth_metric(rng, dim=dim, amplitude=0.3), rng.uniform(-1.0, 1.0, (343, dim))))
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_pipeline_metric_jet_equals_the_component_loop(order):
    # the builder's one eval_tensor call gives the per-component loop's g bit for bit
    from cottonkit.geometry import _metric_pipeline

    for m, pts in _metric_jet_cases():
        assert len(pts) == 343
        for point in (tuple(pts[100]), tuple(pts[:, i] for i in range(m.dim))):
            got = _metric_pipeline(m, point, order)[0].g
            want = metric_jet_per_component(m, point, order)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (m.coords, m.components[0][0], order)


def test_degeneracy_floor_is_relative_to_metric_scale():
    # det(lam g) = lam^3 det(g) and R(lam g) = R(g) / lam: a small overall
    # scale is not a degenerate metric
    coords = ("t", "x", "y")
    p = (0.2, 0.7, -0.3)
    unscaled = MetricSpec.from_components(coords, {"t,t": "1+0.1*x*x", "x,x": "-1", "y,y": "-1"})
    scaled = MetricSpec.from_components(coords, {"t,t": "1e-5*(1+0.1*x*x)", "x,x": "-1e-5", "y,y": "-1e-5"})
    r = curvature_at(unscaled, p).scalar
    assert r != 0.0
    assert curvature_at(scaled, p).scalar == pytest.approx(1e5 * r, rel=1e-12)
    rank_two = MetricSpec.from_components(coords, {"t,t": "1e-5", "t,x": "1e-5", "x,x": "1e-5", "y,y": "-1e-5"})
    with pytest.raises(DegenerateMetricError):
        curvature_at(rank_two, p)


# -- Christoffel -----------------------------------------------------------------


def test_christoffel_flat_vanishes():
    ch = christoffel_at(flat_metric(), (0.3, -0.7, 1.1))
    assert np.max(np.abs(ch.gamma)) == 0.0


def test_christoffel_case_a_value():
    ch = christoffel_at(case_a_2d(2.0), (2.0, 0.1))
    assert ch.gamma[0][0][0] == pytest.approx(-0.5, abs=1e-14)


def test_christoffel_kink_critical_point():
    ch = christoffel_at(kink_2d(), (0.2, 0.0))
    assert np.max(np.abs(ch.gamma)) < 1e-15


def test_christoffel_matches_fd_oracle():
    m = random_smooth_metric(np.random.default_rng(1))
    gamma_fd = christoffel_fd(m)
    for p in [(0.3, 0.1, -0.5), (1.0, -0.8, 0.4)]:
        got = christoffel_at(m, p).gamma
        np.testing.assert_allclose(got, gamma_fd(p), rtol=1e-8, atol=1e-9)


# -- curvature -------------------------------------------------------------------


def test_convention_calibration_r_equals_plus_C():
    for C in (0.25, 1.0, 9.0):
        cv = curvature_at(case_a_2d(C), (1.3, 0.4))
        assert cv.scalar == pytest.approx(C, rel=1e-12)


def test_case_c_scalar_curvature():
    cv = curvature_at(case_c_3d(1.0), (0.1, 1.0, 0.2))
    assert cv.scalar == pytest.approx(-1.5, abs=1e-12)


def test_flat_riemann_zero():
    cv = curvature_at(flat_metric(), (0.4, 0.2, -0.9))
    assert np.max(np.abs(cv.riemann)) == 0.0
    assert cv.scalar == 0.0


def test_einstein_trace_identity():
    m = random_smooth_metric(np.random.default_rng(2))
    cv = curvature_at(m, (0.2, -0.3, 0.7))
    trace = np.trace(cv.einstein)
    assert trace == pytest.approx((1 - m.dim / 2) * cv.scalar, abs=1e-12)


def test_einstein_vanishes_identically_in_2d():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = random_smooth_metric(rng, dim=2, coords=("t", "x"))
        pts = rng.uniform(-1, 1, (20, 2))
        data = curvature_grid(m, pts)
        scale = 1.0 + np.max(np.abs(data["ricci"]), axis=(0, 1))
        assert np.max(np.max(np.abs(data["einstein"]), axis=(0, 1)) / scale) < 1e-11


def test_riemann_antisymmetry_and_gamma_symmetry():
    m = random_smooth_metric(np.random.default_rng(8))
    cv = curvature_at(m, (0.5, 0.2, -0.1))
    np.testing.assert_allclose(cv.gamma, np.swapaxes(cv.gamma, 1, 2), atol=1e-15)
    np.testing.assert_allclose(cv.riemann, -np.swapaxes(cv.riemann, 2, 3), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_ricci_is_last_slot_contraction_of_riemann(dim):
    # the engine contracts the Riemann formula term by term; it must agree
    # with R_{sm} = R^l_{sml} of the assembled tensor at every jet coefficient
    from cottonkit.geometry import _metric_pipeline

    rng = np.random.default_rng(13)
    m = random_smooth_metric(rng, dim=dim, coords=("t", "x", "y")[:dim])
    pts = rng.uniform(-1.0, 1.0, (20, dim))
    pipe = _metric_pipeline(m, tuple(pts[:, i] for i in range(dim)), 3)[0]
    contracted = np.einsum("clsml...->csm...", pipe.riemann)
    scale = 1.0 + np.max(np.abs(pipe.riemann))
    assert np.max(np.abs(pipe.ricci_lower - contracted)) < 1e-14 * scale


def test_metric_compatibility_and_bianchi_on_random_metrics():
    from cottonkit.suite import check_geometry_identities

    reports = check_geometry_identities(n_metrics=5, points_per_metric=40, seed=12)
    for rep in reports:
        assert rep.passed, rep.line()


# -- Cotton ----------------------------------------------------------------------


def test_cotton_flat_exactly_zero():
    co = cotton_at(flat_metric(), (0.1, 0.2, 0.3))
    assert np.max(np.abs(co.c)) == 0.0


def test_cotton_catalog_vanishes():
    co = cotton_at(case_c_3d(1.0), (0.3, 1.2, -0.7))
    assert np.max(np.abs(co.c)) < 1e-9


def test_cotton_requires_dim3():
    with pytest.raises(GeometryError):
        cotton_at(case_a_2d(1.0), (1.0, 0.0))


def test_cotton_control_metric_nonzero_and_matches_fd():
    m = MetricSpec.from_components(
        ("t", "x", "y"), {"t,t": "1+0.1*x*y*t", "x,x": "-1", "y,y": "-1"}
    )
    oracle = cotton_fd(m)
    worst_rel = 0.0
    biggest = 0.0
    for p in [(1.5, 1.5, 1.0), (0.8, -0.6, 0.9), (1.2, 0.4, -1.1)]:
        got = cotton_at(m, p).c
        want = oracle(p)
        biggest = max(biggest, float(np.max(np.abs(got))))
        worst_rel = max(
            worst_rel, float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
        )
    assert biggest > 1e-3
    assert worst_rel < 1e-5


def test_cotton_symmetric_and_traceless_at_point():
    m = random_smooth_metric(np.random.default_rng(4))
    p = (0.3, -0.2, 0.6)
    co = cotton_at(m, p).c
    g = curvature_at(m, p).g
    scale = 1.0 + np.max(np.abs(co))
    np.testing.assert_allclose(co, co.T, atol=1e-12 * scale)
    assert abs(np.einsum("ij,ij->", g, co)) < 1e-9 * scale


def test_cotton_identities_check_random_metrics():
    rng = np.random.default_rng(5)
    for _ in range(3):
        m = random_smooth_metric(rng)
        rep = cotton_identities_check(m, rng.uniform(-1, 1, (5, 3)))
        assert rep.passed, rep.line()
        assert {"symmetry", "trace", "conservation"} <= set(rep.details)


def test_cotton_einstein_form_equivalence():
    # replacing Ricci by the Einstein tensor in the curl leaves the Cotton
    # tensor unchanged; verified numerically rather than assumed
    from cottonkit.geometry import _eps3, _metric_pipeline

    m = random_smooth_metric(np.random.default_rng(6))
    p = (0.4, 0.1, -0.3)
    pipe = _metric_pipeline(m, p, 3)[0]
    ric = pipe.ricci_mixed
    scal = pipe.scalar()
    dim = 3
    einstein = ric - 0.5 * np.multiply.outer(scal.coeffs, np.eye(dim))
    # covariant derivative of the mixed Einstein tensor, same assembly
    dr = pipe.cov_deriv(einstein, 1, 1)
    half = -0.5 / pipe.sqrt_abs_det()
    eps = _eps3(m.orientation)
    cot_e = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            tot = None
            for (a, b), s in np.ndenumerate(eps[i]):
                term = dr[0, j, b, a] * s
                tot = term if tot is None else tot + term
            for (a, b), s in np.ndenumerate(eps[j]):
                tot = tot + dr[0, i, b, a] * s
            cot_e[i, j] = float(tot * half.value)
    cot_r = cotton_at(m, p).c
    np.testing.assert_allclose(cot_e, cot_r, atol=1e-12 * (1 + np.max(np.abs(cot_r))))


@pytest.mark.parametrize("ups, downs", [(0, 2), (2, 0)])
def test_metric_and_inverse_are_covariantly_constant(ups, downs):
    from cottonkit.geometry import _metric_pipeline
    from cottonkit.jets import partials

    m = random_smooth_metric(np.random.default_rng(8))
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (20, 3))
    pipe = _metric_pipeline(m, tuple(pts[:, i] for i in range(3)), 2)[0]
    T = pipe.g if downs else pipe.ginv
    d = pipe.cov_deriv(T, ups, downs)[0]
    assert d.shape == (3, 3, 3, 20)
    # the covariant derivative is a cancellation of partials and Gamma terms
    scale = 1.0 + np.max(np.abs(partials(T, 3)[0]))
    assert np.max(np.abs(d)) < 1e-14 * scale


def test_second_bianchi_identity_on_random_metrics():
    # D_l R^r_{smn} + D_m R^r_{snl} + D_n R^r_{slm} = 0, a rank-4 covariant derivative
    from cottonkit.geometry import _metric_pipeline

    rng = np.random.default_rng(12)
    for _ in range(3):
        m = random_smooth_metric(rng)
        pts = rng.uniform(-1.0, 1.0, (20, 3))
        pipe = _metric_pipeline(m, tuple(pts[:, i] for i in range(3)), 3)[0]
        dR = pipe.cov_deriv(pipe.riemann, 1, 3)[0]  # [r, s, m, n, l] = D_l R^r_{smn}
        cyc = dR + np.einsum("rsnlm...->rsmnl...", dR) + np.einsum("rslmn...->rsmnl...", dR)
        scale = np.max(np.abs(dR))
        assert scale > 1e-4
        assert np.max(np.abs(cyc)) < 1e-14 * (1.0 + scale)


@pytest.mark.parametrize("grid", [(), (4,)], ids=["point", "grid"])
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("nv", [2, 3])
def test_tmul_matches_scalar_jet_products(nv, order, grid):
    from cottonkit.jets import Jet, JetSpace, tensor_mul

    sp = JetSpace.get(nv, order)
    rng = np.random.default_rng(100 * nv + 10 * order + len(grid))
    A = rng.standard_normal((sp.ncoeff, 3, 2) + grid)
    B = rng.standard_normal((sp.ncoeff, 2, 4) + grid)

    def jet(c):
        return Jet(sp, c)

    contracted = tensor_mul(A, B, "ij...,jk...->ik...", nv)
    outer = tensor_mul(A, B, "ij...,kl...->ijkl...", nv)
    assert contracted.shape == (sp.ncoeff, 3, 4) + grid
    assert outer.shape == (sp.ncoeff, 3, 2, 2, 4) + grid
    for i, k in np.ndindex(3, 4):
        ref = jet(A[:, i, 0]) * jet(B[:, 0, k]) + jet(A[:, i, 1]) * jet(B[:, 1, k])
        # rounding is relative to the sum of |a_p b_q| over the same products
        bound = jet(np.abs(A[:, i, 0])) * jet(np.abs(B[:, 0, k])) + jet(np.abs(A[:, i, 1])) * jet(np.abs(B[:, 1, k]))
        assert np.all(np.abs(contracted[:, i, k] - ref.coeffs) <= 1e-15 * bound.coeffs)
        for j, l in np.ndindex(2, 2):
            ref = jet(A[:, i, j]) * jet(B[:, l, k])
            bound = jet(np.abs(A[:, i, j])) * jet(np.abs(B[:, l, k]))
            assert np.all(np.abs(outer[:, i, j, l, k] - ref.coeffs) <= 1e-15 * bound.coeffs)


_TMUL_SPECS = ["kl...,lij...->kij...", "rml...,lns...->rsmn...", "is...,sj...->ij...", "...,ij...->ij..."]


def _operand(rng, ncoeff, sub, grid):
    return rng.standard_normal((ncoeff,) + (3,) * len(sub.replace("...", "")) + grid)


@pytest.mark.parametrize("grid", [(), (20,)], ids=["point", "20 points"])
@pytest.mark.parametrize("order", range(2, 5))
@pytest.mark.parametrize("spec", _TMUL_SPECS)
def test_tmul_gather_and_loop_branches_agree(monkeypatch, spec, order, grid):
    # the same inputs through both branches of tensor_mul, picked by the bound
    from cottonkit import jets
    from cottonkit.jets import JetSpace

    sp = JetSpace.get(3, order)
    rng = np.random.default_rng(order + len(grid))
    sa, sb = spec.split("->")[0].split(",")
    A, B = _operand(rng, sp.ncoeff, sa, grid), _operand(rng, sp.ncoeff, sb, grid)
    default = jets.tensor_mul(A, B, spec, 3)
    monkeypatch.setattr(jets, "_GATHER_MAX_POINTS", 10**9)
    gathered = jets.tensor_mul(A, B, spec, 3)
    monkeypatch.setattr(jets, "_GATHER_MAX_POINTS", 0)
    looped = jets.tensor_mul(A, B, spec, 3)
    # rounding is relative to the same sums over |a| |b|
    bound = jets.tensor_mul(np.abs(A), np.abs(B), spec, 3)
    assert gathered.shape == looped.shape == default.shape
    assert np.all(np.abs(gathered - looped) <= 1e-15 * bound)
    # one point gathers by default, twenty points loop
    assert np.array_equal(default, gathered if grid == () else looped)


def _reference_det_and_inverse(g, dim, order):
    """Scalar-jet cofactor expansion: det along the first row, g^-1 as each
    cofactor (minor times sign) times 1/det."""
    from cottonkit.jets import Jet, JetSpace

    sp = JetSpace.get(dim, order)
    G = [[Jet(sp, g[:, i, j]) for j in range(dim)] for i in range(dim)]

    def minor(i, j):
        r = [k for k in range(dim) if k != i]
        c = [k for k in range(dim) if k != j]
        if dim == 2:
            return G[r[0]][c[0]]
        return G[r[0]][c[0]] * G[r[1]][c[1]] - G[r[0]][c[1]] * G[r[1]][c[0]]

    det = G[0][0] * minor(0, 0) - G[0][1] * minor(0, 1)
    if dim == 3:
        det = det + G[0][2] * minor(0, 2)
    rec = 1.0 / det
    inv = np.empty_like(g)
    for i in range(dim):
        for j in range(i, dim):
            inv[:, i, j] = inv[:, j, i] = (minor(i, j) * (-1.0 if (i + j) % 2 else 1.0) * rec).coeffs
    return det.coeffs, inv


# 1 point gathers all columns, 20 loop over columns and gather pairs, 343
# loop over columns and shift-accumulate
@pytest.mark.parametrize("npts", [1, 20, 343])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3])
def test_det_and_inverse_bit_equal_scalar_jet_cofactors(dim, order, npts):
    # det and g^-1 are built one order below g, as the prefix of the
    # full-order scalar-jet expansion
    from cottonkit.geometry import _metric_pipeline

    rng = np.random.default_rng(10 * dim + npts)
    m = random_smooth_metric(rng, dim=dim, amplitude=0.3)
    pts = rng.uniform(-1.0, 1.0, (npts, dim))
    point = tuple(pts[0]) if npts == 1 else tuple(pts[:, i] for i in range(dim))
    pipe = _metric_pipeline(m, point, order)[0]
    det, inv = _reference_det_and_inverse(pipe.g, dim, order)
    n = math.comb(dim + order - 1, dim)
    assert len(pipe.ginv) == len(pipe.det.coeffs) == n
    assert pipe.ginv.tobytes() == inv[:n].tobytes()
    assert pipe.det.coeffs.tobytes() == det[:n].tobytes()
    assert np.any(pipe.g[:, 0, 1] != 0.0)  # the off-diagonal minors are exercised


@pytest.mark.parametrize("kind", ["nan component", "zero determinant"])
@pytest.mark.parametrize("dim", [2, 3])
def test_degenerate_metric_named_alike_on_both_paths(monkeypatch, dim, kind):
    from cottonkit import geometry, jets

    coords = ("t", "x", "y")[:dim]
    pts = np.random.default_rng(dim).uniform(0.5, 1.0, (20, dim))
    if kind == "nan component":
        m = random_smooth_metric(np.random.default_rng(dim), dim=dim)
        pts[13, 1] = np.nan
    else:  # det = -x (2D) or x (3D) vanishes at x = 0
        m = MetricSpec.from_components(coords, {(0, 0): "x", **{(k, k): "-1" for k in range(1, dim)}})
        pts[13, 1] = 0.0
    errors = []
    for bound in (10**9, 0):  # gather, then loop
        monkeypatch.setattr(jets, "_GATHER_MAX_POINTS", bound)
        for grid in (pts, pts[13:14]):
            with pytest.raises(DegenerateMetricError) as info:
                geometry.curvature_grid(m, grid)
            errors.append(str(info.value))
    assert len(set(errors)) == 1
    assert errors[0].startswith(f"metric degenerate at ({float(pts[13, 0])!r}, ")
    assert errors[0].endswith("(det = nan)" if kind == "nan component" else "0)")


def test_cotton_grid_computes_ricci_derivative_once(monkeypatch):
    from cottonkit import geometry

    calls = []
    original = geometry._Pipeline.cov_deriv

    def counting(self, T, ups, downs):
        calls.append((ups, downs))
        return original(self, T, ups, downs)

    monkeypatch.setattr(geometry._Pipeline, "cov_deriv", counting)
    m = random_smooth_metric(np.random.default_rng(10))
    cotton_grid(m, np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6]]))
    assert calls == [(1, 1)]


# -- scalar-field machinery --------------------------------------------------------


def test_hessian_constant_field_zero():
    H, box = covariant_hessian_at(kink_2d(), parse_expr("3.5"), (0.1, 0.7))
    assert np.max(np.abs(H)) == 0.0
    assert box == 0.0


def test_hessian_flat_signature_sign():
    m = MetricSpec.from_components(("t", "x"), {"t,t": "1", "x,x": "-1"})
    H, box = covariant_hessian_at(m, parse_expr("x^2"), (0.0, 1.3))
    assert box == pytest.approx(-2.0, abs=1e-14)


def test_hessian_kink_field_equation():
    f = parse_expr("sqrt(C)*tanh(sqrt(C)/2*x)")
    m = kink_2d(1.0)
    H, box = covariant_hessian_at(m, f, (0.0, 0.8))
    from cottonkit.exprlang import eval_array

    fv = eval_array(f, {"C": 1.0, "x": 0.8})
    assert abs(box - 1.0 * fv + fv ** 3) < 1e-10


# -- pullbacks ---------------------------------------------------------------------


def test_pullback_identity_map():
    m = case_c_3d(1.3)
    maps = [parse_expr("t"), parse_expr("x"), parse_expr("y")]
    p = (0.4, 1.2, -0.8)
    got = pullback_metric_at(maps, ("t", "x", "y"), m, p)
    np.testing.assert_allclose(got, curvature_at(m, p).g, atol=1e-14)


def test_pullback_conformal_factor_value():
    C = 1.0
    target = MetricSpec.from_components(
        ("T", "X", "Y"),
        {"T,T": "2/(C*(T^2-Y^2))", "X,X": "-2/(C*(T^2-Y^2))", "Y,Y": "-2/(C*(T^2-Y^2))"},
        env={"C": C},
    )
    maps = [parse_expr("t*cosh(sqrt(C/2)*y)"), parse_expr("x"), parse_expr("t*sinh(sqrt(C/2)*y)")]
    got = pullback_metric_at(maps, ("t", "x", "y"), target, (1.0, 0.0, 0.0), env={"C": C})
    np.testing.assert_allclose(got, np.diag([2.0, -2.0, -1.0]), atol=1e-14)


def test_pullback_parameter_shadowing_a_source_coordinate_is_an_error():
    # the parameter used to win, so the map's y column differentiated a constant
    maps = [parse_expr("t"), parse_expr("x"), parse_expr("y")]
    with pytest.raises(ExprEvalError, match="parameter 'y' shadows a coordinate"):
        pullback_metric_at(maps, ("t", "x", "y"), flat_metric(), (1.0, 1.0, 1.0), env={"y": 1.0})


def test_pullback_singular_jacobian_rejected():
    m = flat_metric()
    maps = [parse_expr("t"), parse_expr("t"), parse_expr("y")]
    with pytest.raises(GeometryError):
        pullback_metric_at(maps, ("t", "x", "y"), m, (1.0, 1.0, 1.0))
    # a NaN Jacobian is singular too, not an all-NaN pulled-back metric
    maps = [parse_expr("t+(1e400-1e400)*x"), parse_expr("x"), parse_expr("y")]
    with pytest.raises(GeometryError, match="singular Jacobian"):
        pullback_metric_at(maps, ("t", "x", "y"), m, (1.0, 1.0, 1.0))


def test_pullback_grid_matches_single_points_bitwise():
    from cottonkit.catalog import SolutionCase, transform, transform_grid
    from cottonkit.exprlang import to_text

    for case in (SolutionCase("a", 1.0), SolutionCase("b", -1.0), SolutionCase("kink+", 1.0)):
        tr = transform(case)
        ft = to_text(tr.conformal_factor)
        target = MetricSpec.from_components(
            tr.target_coords, {(0, 0): ft, (1, 1): f"-({ft})", (2, 2): f"-({ft})"}, env=tr.env
        )
        grid = np.array([p for p in transform_grid(case, 7) if tr.in_domain(p)])
        got = pullback_metric_grid(tr.components, tr.source_coords, target, grid, env=tr.env)
        assert got.shape == (3, 3, len(grid))
        for k, p in enumerate(grid):
            one = pullback_metric_at(tr.components, tr.source_coords, target, p, env=tr.env)
            assert np.array_equal(got[..., k], one)


def test_pullback_grid_singular_point_rejected():
    # the Jacobian of (t, t*x, y) has determinant t
    maps = [parse_expr("t"), parse_expr("t*x"), parse_expr("y")]
    pts = np.array([[1.0, 0.5, 0.2], [0.0, 0.5, 0.2], [2.0, -1.0, 0.3]])
    with pytest.raises(GeometryError, match=r"singular Jacobian at \(0\.0, 0\.5, 0\.2\)"):
        pullback_metric_grid(maps, ("t", "x", "y"), flat_metric(), pts)
    assert pullback_metric_grid(maps, ("t", "x", "y"), flat_metric(), pts[::2]).shape == (3, 3, 2)


def test_cotton_grid_conservation_needs_order4():
    m = random_smooth_metric(np.random.default_rng(7))
    pts = np.array([[0.1, 0.2, 0.3]])
    assert "divergence" not in cotton_grid(m, pts, order=3)
    assert "divergence" in cotton_grid(m, pts, order=4)


@pytest.mark.parametrize("order", [0, 1, 5])
def test_curvature_grid_rejects_order_outside_2_to_4(order):
    m = random_smooth_metric(np.random.default_rng(7))
    with pytest.raises(GeometryError, match=rf"curvature_grid order must be in 2\.\.4, got {order}"):
        curvature_grid(m, np.array([[0.1, 0.2, 0.3]]), order=order)


@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_cotton_grid_rejects_order_outside_3_to_4(order):
    m = random_smooth_metric(np.random.default_rng(7))
    with pytest.raises(GeometryError, match=rf"cotton_grid order must be in 3\.\.4, got {order}"):
        cotton_grid(m, np.array([[0.1, 0.2, 0.3]]), order=order)


def test_ricci_matches_fd_oracle():
    from fd_oracles import ricci_mixed_fd

    m = random_smooth_metric(np.random.default_rng(21))
    oracle = ricci_mixed_fd(m)
    for p in [(0.2, -0.4, 0.8), (1.1, 0.5, -0.3)]:
        got = curvature_at(m, p).ricci
        want = oracle(p)
        assert np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))) < 1e-7


def test_cotton_identities_flat_exactly_zero():
    grid = np.array([[0.1, 0.2, 0.3], [1.0, -0.4, 0.7]])
    rep = cotton_identities_check(flat_metric(), grid)
    assert rep.max_residual == 0.0


def test_orientation_flag_flips_cotton_sign():
    comps = {"t,t": "1+0.1*x*y*t", "x,x": "-1", "y,y": "-1"}
    plus = MetricSpec.from_components(("t", "x", "y"), comps, orientation=1)
    minus = MetricSpec.from_components(("t", "x", "y"), comps, orientation=-1)
    p = (1.1, 0.7, -0.4)
    np.testing.assert_allclose(cotton_at(plus, p).c, -cotton_at(minus, p).c, atol=1e-15)
