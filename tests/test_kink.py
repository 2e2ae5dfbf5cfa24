import math

import numpy as np
import pytest

from cottonkit.exprlang import eval_array, parse_expr
from cottonkit.kink import (
    PotentialSpec,
    fixed_step_errors,
    flat_kink_solve,
    lift_curvature_check,
    lift_flat_kink,
    lift_residuals,
    phi4_potential,
    sine_gordon_potential,
    solve_kink_ode,
)


# -- potential spec ------------------------------------------------------------


def test_phi4_potential_normalization():
    p, k = phi4_potential(1.0)
    assert p(1.0) == pytest.approx(0.0, abs=1e-14)
    assert p(-1.0) == pytest.approx(0.0, abs=1e-14)
    assert p(0.0) == pytest.approx(0.25)
    # V' = phi^3 - C phi under this normalization
    assert p.derivatives(0.7, 1)[1] == pytest.approx(0.7 ** 3 - 0.7, abs=1e-13)


def test_potential_invariants_enforced():
    with pytest.raises(ValueError):  # vacua not roots
        PotentialSpec(parse_expr("(phi^2-1)^2/4+0.1"), "phi", {}, (-1.0, 1.0))
    with pytest.raises(ValueError):  # negative between vacua
        PotentialSpec(parse_expr("-(phi^2-1)^2/4"), "phi", {}, (-1.0, 1.0))
    with pytest.raises(ValueError):  # unordered vacua
        PotentialSpec(parse_expr("(phi^2-1)^2/4"), "phi", {}, (1.0, -1.0))


# -- shooting solver ------------------------------------------------------------


@pytest.fixture(scope="module")
def profile_c1():
    return solve_kink_ode(1.0, 8.0, n=801, tol=1e-7)


def test_kink_value_at_two(profile_c1):
    i = int(np.argmin(np.abs(profile_c1.x - 2.0)))
    assert profile_c1.x[i] == pytest.approx(2.0)
    assert abs(profile_c1.f[i] - math.tanh(1.0)) < 1e-6


def test_shooting_parameter_converges_to_half_C(profile_c1):
    assert abs(profile_c1.shoot_param - 0.5) < 1e-6


def test_kink_c4_supnorm():
    prof = solve_kink_ode(4.0, 4.0, n=501, tol=1e-7)
    exact = 2.0 * np.tanh(prof.x)
    assert np.max(np.abs(prof.f - exact)) < 1e-6


def test_first_integral_drift_small(profile_c1):
    assert np.max(np.abs(profile_c1.first_integral - 1.0)) < 10 * 1e-7


def test_profile_shape_invariants(profile_c1):
    assert profile_c1.f[len(profile_c1.x) // 2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(profile_c1.f) > 0)
    assert np.all(profile_c1.h > 0)


def test_orientation_symmetry(profile_c1):
    prof_m = solve_kink_ode(1.0, 8.0, n=801, tol=1e-7, orientation=-1)
    assert np.max(np.abs(prof_m.f + profile_c1.f)) < 1e-10


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_kink_ode(1.0, 3.0)  # xmax below 5/sqrt(C)
    with pytest.raises(ValueError):
        solve_kink_ode(1.0, 8.0, n=32)
    with pytest.raises(ValueError):
        solve_kink_ode(-1.0, 8.0)


def test_grid_refinement_at_least_fourth_order():
    steps = [0.5, 0.25, 0.125]
    errs = fixed_step_errors(1.0, 8.0, steps)
    for k in range(len(errs) - 1):
        assert errs[k] / errs[k + 1] >= 16.0
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 4.0


# -- flat kinks -------------------------------------------------------------------


def test_flat_phi4_matches_closed_form():
    p, _ = phi4_potential(1.0)
    fk = flat_kink_solve(p, 10.0)
    want = np.tanh(fk.x / math.sqrt(2.0))
    assert np.max(np.abs(fk.k - want)) < 1e-8


def test_flat_sine_gordon_matches_closed_form():
    p, _ = sine_gordon_potential()
    fk = flat_kink_solve(p, 10.0)
    want = 4.0 * np.arctan(np.exp(fk.x))
    assert fk.center_value == pytest.approx(math.pi, abs=1e-10)
    assert np.max(np.abs(fk.k - want)) < 1e-8


def test_flat_kink_scaling_property():
    lam = 1.7
    p, _ = phi4_potential(1.0)
    p_scaled = PotentialSpec(
        parse_expr(f"{lam**2}*(phi^2-1)^2/4"), "phi", {}, (-1.0, 1.0)
    )
    base = flat_kink_solve(p, 12.0)
    scaled = flat_kink_solve(p_scaled, 6.0)
    inner = np.abs(scaled.x) <= 5.0
    ref = base(scaled.x[inner] * lam)
    assert np.max(np.abs(scaled.k[inner] - ref)) < 1e-8


# -- the lift ----------------------------------------------------------------------


def test_lift_phi4_closed_forms():
    p, k = phi4_potential(1.0)
    lift = lift_flat_kink(p, k)
    # f(x) = k(x / sqrt 2) = tanh(x/2); g_tt = V(f) = sech^4(x/2)/4
    assert eval_array(lift.f, {"x": 1.0, "C": 1.0}) == pytest.approx(math.tanh(0.5), abs=1e-14)
    gtt0 = eval_array(lift.metric.components[0][0], {"x": 0.0, "C": 1.0})
    assert gtt0 == pytest.approx(0.25)


def test_lift_sine_gordon_gtt_at_center():
    p, k = sine_gordon_potential()
    lift = lift_flat_kink(p, k)
    assert eval_array(lift.metric.components[0][0], {"x": 0.0}) == pytest.approx(2.0)


def test_lift_residuals_phi4_and_sine_gordon():
    xs = np.linspace(-6.0, 6.0, 49)
    for maker in (lambda: phi4_potential(1.0), sine_gordon_potential):
        p, k = maker()
        lift = lift_flat_kink(p, k)
        rep = lift_residuals(p, lift, xs)
        assert rep.passed, rep.line()
        rep2 = lift_curvature_check(p, lift, xs)
        assert rep2.passed, rep2.line()


def test_lift_constant_vacuum_is_exact():
    p, _ = phi4_potential(1.0)
    lift = lift_flat_kink(p, parse_expr("1"))  # constant field at the vacuum
    # metric degenerates (V = 0), so check the field equation directly:
    # V'(vacuum) = 0 means the constant solves the flat equation trivially
    assert p.derivatives(1.0, 1)[1] == pytest.approx(0.0, abs=1e-14)


def test_lift_curvature_values():
    p, k = phi4_potential(1.0)
    lift = lift_flat_kink(p, k)
    from cottonkit.geometry import curvature_at

    # r(0) = -V''(0) = 1 and r -> -2C far out
    assert curvature_at(lift.metric, (0.0, 0.0)).scalar == pytest.approx(1.0, abs=1e-12)
    # approach to the vacuum value -2C; farther out g_tt = V(f) underflows
    # the nondegeneracy floor, so sample where the tail is ~1e-5
    assert curvature_at(lift.metric, (0.0, 14.0)).scalar == pytest.approx(-2.0, abs=2e-5)

    sg, ksg = sine_gordon_potential()
    lift_sg = lift_flat_kink(sg, ksg)
    # r(0) = -V''(pi) = -cos(pi) = 1
    assert curvature_at(lift_sg.metric, (0.0, 0.0)).scalar == pytest.approx(1.0, abs=1e-12)


def test_lift_reproduces_catalog_after_time_rescale():
    p, k = phi4_potential(1.0)
    lift = lift_flat_kink(p, k)
    xs = np.linspace(-6.0, 6.0, 25)
    gtt = np.array([eval_array(lift.metric.components[0][0], {"x": float(x), "C": 1.0}) for x in xs])
    catalog = 1.0 / np.cosh(xs / 2.0) ** 4
    assert np.max(np.abs(4.0 * gtt - catalog)) < 1e-9


def test_sampled_lift_from_numeric_kink():
    p, _ = phi4_potential(1.0)
    fk = flat_kink_solve(p, 10.0)
    lift = lift_flat_kink(p, fk)
    assert lift.x.shape == lift.f.shape == lift.g_tt.shape
    mid = len(lift.x) // 2
    assert lift.g_tt[mid] == pytest.approx(0.25, abs=1e-9)
