import math
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import cottonkit.kink as kink
from cottonkit.exprlang import ExprEvalError, eval_array, parse_expr
from cottonkit.kink import (
    KinkSolverError,
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
from cottonkit.suite import check_kink_solver


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


def test_potential_parameter_shadowing_the_field_is_an_error():
    # the parameter used to win, and V(-1) = 0.140625 failed the vacuum check
    with pytest.raises(ExprEvalError, match="parameter 'C' shadows a coordinate"):
        PotentialSpec(parse_expr("(C^2-1)^2/4"), "C", {"C": 0.5}, (-1.0, 1.0))


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



@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"C": math.nan}, "C"),
        ({"C": math.inf}, "C"),
        ({"xmax": math.nan}, "xmax"),
        ({"xmax": math.inf}, "xmax"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 0.0}, "tol"),
    ],
)
def test_solver_rejects_non_finite_input_before_integrating(monkeypatch, kwargs, name):
    # a NaN fails `C <= 0` and `xmax < 5/sqrt(C)` alike, and used to send
    # the shooting into an endless loop
    def no_integration(*a, **k):
        raise AssertionError("integrated before validating its input")

    monkeypatch.setattr(kink, "_dopri5_orbit", no_integration)
    monkeypatch.setattr(kink, "_classify_batch", no_integration)
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive"):
        solve_kink_ode(**{"C": 1.0, "xmax": 8.0, "tol": 1e-7, **kwargs})


@pytest.mark.parametrize(
    "xmax, n, match",
    [
        (math.nan, 401, "xmax"),
        (math.inf, 401, "xmax"),
        (-3.0, 401, "xmax"),
        (6.0, 1, "grid size n"),
        (1e7, 401, "xmax = 1e"),  # too long for the fixed step
    ],
)
def test_flat_kink_rejects_bad_input_before_integrating(monkeypatch, xmax, n, match):
    def no_integration(*a, **k):
        raise AssertionError("integrated before validating its input")

    p, _ = phi4_potential(1.0)
    monkeypatch.setattr(kink, "_dopri5_orbit", no_integration)
    monkeypatch.setattr(kink, "_classify_batch", no_integration)
    with pytest.raises(ValueError, match=match):
        flat_kink_solve(p, xmax, n=n)

# xmax varies the classification span sqrt(C) (xmax + 60/sqrt(C)) from 65
# to 72; for C <= 2 the classifier is otherwise one scaled problem
@pytest.mark.parametrize("C, xmax", [(0.01, 50.0), (0.25, 20.0), (1.0, 8.0), (4.0, 6.0), (100.0, 0.6)])
def test_shooting_parameter_at_integrator_resolution(C, xmax):
    prof = solve_kink_ode(C, xmax, n=201, tol=1e-7)
    assert abs(prof.shoot_param - 0.5 * C) <= 5e-13 * C
    assert prof.bracket_width <= 2e-13 * C


@pytest.mark.parametrize("C", [1.0, 100.0])
def test_first_halving_decided_a_decade_clear(C):
    # the first round's middle point sits 5e-7 C above the separatrix; every
    # rtol up to ten times the loosest must still put it on the overshooting
    # side
    x_class = 68.0 / math.sqrt(C)
    mid = 0.5 * (1e-6 * C + C)
    rtols = kink._LOOSEST_RTOL * 10.0 ** (np.arange(-8, 5) / 4)
    assert list(kink._classify_batch(C, np.full(rtols.size, mid), x_class, rtols)) == [1] * rtols.size


def _flip_second_round(monkeypatch, pick):
    """Route the solver's classifications through a stub that flips the
    decision at index pick(sides) of the second round's batch."""
    real = kink._classify_batch
    calls = []

    def flipped(*args):
        calls.append(args)
        sides = real(*args)
        if len(calls) == 2:
            sides[pick(sides)] *= -1
        return sides

    monkeypatch.setattr(kink, "_classify_batch", flipped)


def test_wrong_early_decision_fails_closed(monkeypatch):
    # flip the second round's point nearest the separatrix on the turning
    # side: the bracket then converges away from the separatrix, and the
    # re-classification of its ends must catch it
    _flip_second_round(monkeypatch, lambda sides: np.flatnonzero(sides == -1)[-1])
    with pytest.raises(KinkSolverError, match="does not straddle"):
        solve_kink_ode(1.0, 8.0, n=201, tol=1e-7)


def test_non_monotone_round_fails_closed(monkeypatch):
    # an overshooting decision below a turning one has no separatrix to
    # bracket; the round must fail rather than pick either crossing
    _flip_second_round(monkeypatch, lambda sides: 0)
    with pytest.raises(KinkSolverError, match="overshooting orbit below a turning one"):
        solve_kink_ode(1.0, 8.0, n=201, tol=1e-7)


def test_integration_count_per_solve(monkeypatch):
    # 9 rounds of 31 points from width C to 2e-13 C, the two bracket ends in
    # the first round's batch, their re-classification; the final orbit is
    # one fixed-step run
    real = kink._dopri5_orbit
    runs = []

    def counted(*args):
        runs.append(args[3])
        return real(*args)

    monkeypatch.setattr(kink, "_dopri5_orbit", counted)
    (rep,) = check_kink_solver(C_values=(1.0,))
    assert rep.details["iterations"] == 9
    assert rep.details["classify_solves"] == 9 * 31 + 4
    assert rep.details["resolution"] == pytest.approx(2e-13)
    assert rep.details["bracket_width"] <= 2e-13
    assert runs == [math.ceil((8.0 + 4 * 0.02) / 0.02)]  # to xmax + 4 steps at delta = 0.02


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_classify_batch_non_finite_slope_fails_fast(s):
    # a NaN error norm rejects every step and a NaN step never collapses
    # below a bound, so without the guard this would loop for ever
    def timeout(*_):
        raise AssertionError("classification did not stop within a second")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(KinkSolverError, match="non-finite"):
            kink._classify_batch(1.0, [0.5, s], 68.0, 1e-9)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _scipy_side(C, s, x_class, rtol):
    """One orbit's side by scipy's DOP853 with terminal events, and the
    conserved quadratic at x_class for an undecided orbit."""
    root = math.sqrt(C)

    def turn(x, y):
        return y[1]

    def cross(x, y):
        return y[0] - root

    turn.terminal = cross.terminal = True
    turn.direction, cross.direction = -1.0, 1.0
    sol = solve_ivp(
        lambda x, y: (y[1], 0.5 * (y[0] ** 3 - C * y[0])),
        (0.0, x_class),
        (0.0, s),
        method="DOP853",
        rtol=rtol,
        atol=rtol * min(1.0, 0.5 * C),
        events=(turn, cross),
    )
    if sol.t_events[1].size:
        return 1
    if sol.t_events[0].size:
        return -1
    f, u = sol.y[:, -1]
    return 1 if u * u > 0.25 * (f * f - C) ** 2 else -1


@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
def test_classify_batch_agrees_with_scipy(C):
    # 204 orbits per coupling, 10^-12.5 to 10^-0.5 of C/2 either side of
    # the separatrix, at three tolerances: the batch reproduces scipy's
    # steps, so no decision may differ, right or wrong
    x_class = 68.0 / math.sqrt(C)
    offsets = 10.0 ** np.linspace(-12.5, -0.5, 34)
    s = 0.5 * C * np.concatenate((1.0 - offsets, 1.0 + offsets))
    for rtol in (1e-12, 1e-9, 1e-7):
        batch = kink._classify_batch(C, s, x_class, rtol)
        want = [_scipy_side(C, float(v), x_class, rtol) for v in s]
        assert batch.tolist() == want, rtol


def test_grid_refinement_at_least_fourth_order():
    steps = [0.5, 0.25, 0.125]
    errs = fixed_step_errors(1.0, 8.0, steps)
    for k in range(len(errs) - 1):
        assert errs[k] / errs[k + 1] >= 16.0
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 4.0


# Dormand and Prince (1980), Table 2: the 5th-order solution of the 4/5 pair
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)


def _dopri5_reference(rhs, y0, x1, h):
    y = np.asarray(y0, dtype=float)
    x = 0.0
    for _ in range(int(round(x1 / h))):
        k = [np.asarray(rhs(x, y))]
        for i in range(1, 6):
            yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
            k.append(np.asarray(rhs(x + h * sum(_DP_A[i]), yi)))
        y = y + h * sum(b * kk for b, kk in zip(_DP_B, k))
        x += h
    return y


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_scipy_rk45_tableau_is_the_dormand_prince_table():
    from scipy.integrate import RK45
    from scipy.integrate._ivp import dop853_coefficients as dop853

    for i, row in enumerate(_DP_A):
        assert RK45.A[i].tolist() == list(row) + [0.0] * (5 - len(row))
    assert RK45.B.tolist() == list(_DP_B)
    # the module's literal tableaux are scipy's, bit for bit: the rows of A
    # cut to the stages they read, and nothing in the cut-off part
    assert len(kink._RK45_A) == 5 and len(kink._DOP853_A) == dop853.N_STAGES - 1
    for i, row in enumerate(kink._RK45_A, 1):
        assert _bits(row) == _bits(RK45.A[i, :i]) and not RK45.A[i, i:].any(), i
    assert _bits(kink._RK45_B) == _bits(RK45.B)
    assert _bits(kink._RK45_P) == _bits(RK45.P)
    for k, row in enumerate(kink._DOP853_A, 1):
        assert _bits(row) == _bits(dop853.A[k, :k]) and not dop853.A[k, k:].any(), k
    assert _bits(kink._DOP853_B) == _bits(dop853.B)
    assert _bits(kink._DOP853_E5) == _bits(dop853.E5)
    assert _bits(kink._DOP853_E3) == _bits(dop853.E3)


def _static_gauge_rhs(C):
    def rhs(x, y):
        f, u, h = y
        du = 0.5 * (f ** 3 - C * f)
        return (u, du, 2.0 * h * du / u)

    return rhs


@pytest.mark.parametrize("C", [0.25, 1.0, 9.0])
def test_fixed_step_dopri5_bit_equal_to_hand_tableau(C):
    # the right-hand side is autonomous, so the stage nodes do not enter and
    # every step state of the orbit reproduces the hand-copied tableau exactly
    rhs = _static_gauge_rhs(C)
    y0 = np.array([0.0, 0.5 * C, 1.0])
    for h in (0.5, 0.125, 0.0625):
        h /= math.sqrt(C)
        Y, K = kink._dopri5_orbit(lambda y: rhs(0.0, y), y0, h, 8)
        assert Y.shape == (9, 3) and K.shape == (8, 7, 3)
        for n in range(9):
            assert Y[n].tobytes() == _dopri5_reference(rhs, y0, n * h, h).tobytes(), n


@pytest.mark.parametrize("C", [0.25, 1.0, 9.0])
def test_dopri5_dense_output_matches_scipy_interpolant(C):
    from scipy.integrate import RK45
    from scipy.integrate._ivp.rk import RkDenseOutput

    h = 2.0 ** -5  # k h / h == k exactly, so x = k h lands on step k at theta = 0
    rhs = _static_gauge_rhs(C)
    Y, K = kink._dopri5_orbit(lambda y: rhs(0.0, y), (0.0, 0.5 * C, 1.0), h, 40)
    # the slopes are first same as last, and the seventh is the end state's
    assert K[1:, 0].tobytes() == K[:-1, 6].tobytes()
    assert K[-1, 6].tobytes() == np.array(rhs(0.0, Y[-1])).tobytes()
    k = np.arange(40)
    assert kink._dopri5_dense(Y, K, h, k * h).T.tobytes() == Y[:-1].tobytes()
    # the two sum the same terms in other orders: a few ulp of the summed
    # magnitudes |Y| + h (|K|^T |P|) theta^i, which the stage slopes' cancelling
    # terms put far above the ulp of a value near f = 0
    theta = np.array([0.1, 0.25, 0.5, 0.7, 0.95])
    powers = np.cumprod(np.tile(theta, (4, 1)), axis=0)
    for j in (0, 17, 39, 40):  # 40: past the last step its interpolant extends
        step = min(j, 39)
        scipy_step = RkDenseOutput(step * h, (step + 1) * h, Y[step], K[step].T.dot(RK45.P))
        x = (j + theta) * h
        want = scipy_step(x)
        got = kink._dopri5_dense(Y, K, h, x)
        assert got.shape == want.shape == (3, theta.size)
        scale = np.abs(Y[step])[:, None] + h * (np.abs(K[step]).T @ np.abs(RK45.P)) @ powers
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale)), j


@pytest.mark.parametrize("C", [0.25, 1.0, 4.0, 9.0])
def test_final_profile_matches_adaptive_reference(C):
    # an adaptive 8th-order reference from the solver's own u(0), at a
    # tolerance far below the fixed-step orbit's error
    xmax = 8.0 / math.sqrt(C)
    prof = solve_kink_ode(C, xmax, n=801, tol=1e-7)
    ref = solve_ivp(
        _static_gauge_rhs(C),
        (0.0, xmax),
        (0.0, prof.shoot_param, 1.0),
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
        dense_output=True,
    )
    half = prof.x >= 0.0
    f, u, h = ref.sol(prof.x[half])
    assert np.max(np.abs(prof.f[half] - f)) < 1e-9
    assert np.max(np.abs(prof.fprime[half] - u)) < 1e-9
    assert np.max(np.abs(prof.h[half] - h)) < 1e-9


def test_dopri5_orbit_blow_up_leaves_nan_rows():
    # an orbit a little above the separatrix overshoots and blows up in
    # finite x; the overflow ends the run with NaN rows instead of raising
    Y, K = kink._dopri5_orbit(kink._static_gauge_slope(1.0), (0.0, 0.5 + 1e-6, 1.0), 0.02, 1500)
    finite = np.isfinite(Y).all(axis=1)
    first_bad = int(np.argmin(finite))
    assert 0 < first_bad < 1500 and not finite[first_bad:].any() and finite[:first_bad].all()
    assert np.isnan(K[first_bad - 1 :]).all() and np.isfinite(K[: first_bad - 1]).all()


def _nan_past_09(monkeypatch):
    """Route the fixed-step orbit through a stub that turns every state with
    |f| > 0.9, and the slopes of the step ending there, into NaN."""
    real = kink._dopri5_orbit

    def nan_rows(*args):
        Y, K = real(*args)
        bad = np.abs(Y[:, 0]) > 0.9
        Y[bad] = np.nan
        K[bad[1:]] = np.nan
        return Y, K

    monkeypatch.setattr(kink, "_dopri5_orbit", nan_rows)


def test_non_finite_orbit_fails_the_solve(monkeypatch):
    _nan_past_09(monkeypatch)
    with pytest.raises(KinkSolverError, match="non-finite"):
        solve_kink_ode(1.0, 8.0, n=201, tol=1e-7)


def test_non_finite_profile_is_rejected(profile_c1):
    # NaN <= 0 is False, so a NaN profile passed the monotonicity and h > 0
    # tests written as `any(... <= 0)`
    fields = {name: getattr(profile_c1, name) for name in kink.KinkProfile.__dataclass_fields__}
    nan = np.full_like(profile_c1.x, np.nan)
    with pytest.raises(KinkSolverError):
        kink.KinkProfile(**{**fields, "f": nan, "h": nan})
    for name in ("x", "fprime", "eq14_residual", "first_integral"):
        with pytest.raises(KinkSolverError, match="non-finite"):
            kink.KinkProfile(**{**fields, name: nan})


# -- flat kinks -------------------------------------------------------------------


# The fixed-step orbit at 108 steps per kink width misses the closed forms
# by 2.0e-12 (phi^4) and 1.6e-11 (sine-Gordon) on the 801-point grid, and by
# 2.9e-12 and 1.7e-11 between its points; the bounds leave a factor 1.7-2.5.
_DENSE_X = np.linspace(-10.0, 10.0, 4001)


def test_flat_phi4_matches_closed_form():
    p, _ = phi4_potential(1.0)
    fk = flat_kink_solve(p, 10.0)
    assert np.max(np.abs(fk.k - np.tanh(fk.x / math.sqrt(2.0)))) < 5e-12
    assert np.max(np.abs(fk(_DENSE_X) - np.tanh(_DENSE_X / math.sqrt(2.0)))) < 5e-12
    assert abs(fk.center_value) < 1e-14


def test_flat_sine_gordon_matches_closed_form():
    p, _ = sine_gordon_potential()
    fk = flat_kink_solve(p, 10.0)
    assert fk.center_value == pytest.approx(math.pi, abs=1e-14)
    assert np.max(np.abs(fk.k - 4.0 * np.arctan(np.exp(fk.x)))) < 3e-11
    assert np.max(np.abs(fk(_DENSE_X) - 4.0 * np.arctan(np.exp(_DENSE_X)))) < 3e-11


@pytest.mark.parametrize(
    "expr, vacua",
    [("1-cos(phi)", (0.0, 2.0 * math.pi)), ("(phi^2-1)^2*(phi+2)/8", (-1.0, 1.0)), ("(phi^2-9)^2/4", (-3.0, 3.0))],
)
def test_interior_maximum_agrees_with_brentq(expr, vacua):
    from scipy.optimize import brentq

    p = PotentialSpec(parse_expr(expr), "phi", {}, vacua)
    grid = np.linspace(*vacua, 401)[1:-1]
    k = int(np.argmax(p(grid)))
    want = brentq(lambda u: p.derivatives(u, 1)[1], grid[k - 1], grid[k + 1], xtol=1e-14)
    assert abs(kink._interior_maximum(p) - want) <= 2e-14


def test_flat_kink_is_one_orbit_of_both_halves(monkeypatch):
    real = kink._dopri5_orbit
    runs = []

    def counted(rhs, y0, h, nsteps):
        runs.append((tuple(y0), h, nsteps))
        return real(rhs, y0, h, nsteps)

    monkeypatch.setattr(kink, "_dopri5_orbit", counted)
    p, _ = sine_gordon_potential()
    fk = flat_kink_solve(p, 10.0)
    step = 2.0 * math.pi / (kink._FLAT_STEPS_PER_WIDTH * 2.0)  # (hi - lo) / k'(0), k'(0) = 2
    assert runs == [((fk.center_value,) * 2, pytest.approx(step, rel=1e-15), math.ceil(10.0 / step))]
    # past the solved span the dense output holds the end values, clamped to the vacua
    assert fk(11.0) == fk(10.0) and fk(-11.0) == fk(-10.0)
    assert 0.0 <= fk(-10.0) < fk(10.0) <= 2.0 * math.pi


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
