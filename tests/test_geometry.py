import numpy as np
import pytest

from fd_oracles import christoffel_fd, cotton_fd
from cottonkit.exprlang import parse_expr
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
    from cottonkit.geometry import _Pipeline, _eps3

    m = random_smooth_metric(np.random.default_rng(6))
    p = (0.4, 0.1, -0.3)
    pipe = _Pipeline(m, p, order=3)
    ric = pipe.ricci_mixed
    scal = pipe.scalar()
    dim = 3
    einstein = [[ric[i][j] - (0.5 * scal if i == j else 0.0) for j in range(dim)] for i in range(dim)]
    # covariant derivative of the mixed Einstein tensor, same assembly
    dr = pipe.cov_deriv(einstein, 1, 1)
    half = -0.5 / pipe.sqrt_abs_det()
    eps = _eps3(m.orientation)
    cot_e = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            tot = None
            for (a, b), s in eps[i]:
                term = dr[j][b][a] * s
                tot = term if tot is None else tot + term
            for (a, b), s in eps[j]:
                tot = tot + dr[i][b][a] * s
            cot_e[i, j] = float(np.asarray((tot * half).coeffs[0]))
    cot_r = cotton_at(m, p).c
    np.testing.assert_allclose(cot_e, cot_r, atol=1e-12 * (1 + np.max(np.abs(cot_r))))


@pytest.mark.parametrize("ups, downs", [(0, 2), (2, 0)])
def test_metric_and_inverse_are_covariantly_constant(ups, downs):
    from cottonkit.geometry import _Pipeline, _vals

    m = random_smooth_metric(np.random.default_rng(8))
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (20, 3))
    pipe = _Pipeline(m, tuple(pts[:, i] for i in range(3)), order=2)
    T = pipe.g if downs else pipe.ginv
    d = _vals(pipe.cov_deriv(T, ups, downs))
    assert d.shape == (3, 3, 3, 20)
    # the covariant derivative is a cancellation of partials and Gamma terms
    scale = 1.0 + np.max(np.abs(_vals([[[t.derivative(a) for a in range(3)] for t in row] for row in T])))
    assert np.max(np.abs(d)) < 1e-14 * scale


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
    from cottonkit.exprlang import eval_real

    fv = eval_real(f, {"C": 1.0, "x": 0.8})
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


def test_pullback_singular_jacobian_rejected():
    m = flat_metric()
    maps = [parse_expr("t"), parse_expr("t"), parse_expr("y")]
    with pytest.raises(GeometryError):
        pullback_metric_at(maps, ("t", "x", "y"), m, (1.0, 1.0, 1.0))


def test_cotton_grid_conservation_needs_order4():
    m = random_smooth_metric(np.random.default_rng(7))
    pts = np.array([[0.1, 0.2, 0.3]])
    assert "divergence" not in cotton_grid(m, pts, order=3)
    assert "divergence" in cotton_grid(m, pts, order=4)


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
