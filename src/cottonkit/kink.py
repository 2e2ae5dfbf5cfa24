"""Kink machinery: shooting solver, flat-space kinks, and the lifting map.

The static-gauge metric diag(h(x), -1) turns the reduced field equations
into an ODE system: the trace equation combined with the traceless-Hessian
constraint decouples to

    f'' = (f^3 - C f) / 2,        h'/h = 2 f''/f',

so the solver integrates (f, u=f', h) with f(0) = 0, h(0) = 1 and shoots on
u(0).  The kink is the separatrix between orbits that turn back (u hits 0
below the vacuum) and orbits that overshoot (f crosses sqrt(C)); bisection
on that dichotomy drives f(xmax) toward sqrt(C) as far as the asymptote
allows and pins u(0) to machine precision without ever consulting the
closed form.

The flat-space solver integrates the first-order quadrature form
k' = sqrt(2 V(k)) from the potential's interior maximum, which is the
profile's inflection value.  The lift sends a flat kink k to the curved
pair f(x) = k(x/sqrt(2)), g = diag(V(f), -1); the residual and curvature
checks of that construction are exact-jet evaluations, so the lifting
theorem is verified at engine precision, with the vanishing-at-the-vacua
normalization of V as the stated precondition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .exprlang import ExprAst, eval_array, parse_expr, substitute
from .geometry import MetricSpec, _expr_jet, _Pipeline, _vals, curvature_grid
from .jets import Jet, jet_extract, jet_var
from .report import CheckReport, make_report

__all__ = [
    "PotentialSpec",
    "KinkProfile",
    "FlatKink",
    "LiftedKink",
    "SampledLift",
    "KinkSolverError",
    "phi4_potential",
    "sine_gordon_potential",
    "solve_kink_ode",
    "flat_kink_solve",
    "lift_flat_kink",
    "lift_residuals",
    "lift_curvature_check",
    "fixed_step_errors",
]


class KinkSolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V(phi) with both vacua at V = 0 and V > 0 in between.

    The vanishing-at-the-vacua normalization is what makes the first
    integral k'^2 = 2V hold and the lifted metric g_tt = V(f) solve the
    curved equations; it is checked at construction.
    """

    expr: ExprAst
    var: str = "phi"
    env: dict = field(default_factory=dict)
    vacua: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        lo, hi = self.vacua
        if not lo < hi:
            raise ValueError("vacua must be ordered")
        scale = 1.0 + max(abs(self(0.5 * (lo + hi))), 1.0)
        for v in self.vacua:
            if abs(self(v)) > 1e-12 * scale:
                raise ValueError(f"V({v}) = {self(v):g}; vacua must be roots of V")
        interior = np.linspace(lo, hi, 201)[1:-1]
        vals = self(interior)
        if np.any(vals <= 0.0):
            bad = float(interior[int(np.argmin(vals))])
            raise ValueError(f"V must be strictly positive between the vacua (V({bad:g}) <= 0)")

    def __call__(self, phi):
        """V at phi, a float or an array; an array of phi's shape."""
        return eval_array(self.expr, {self.var: phi, **self.env})

    def derivatives(self, phi: float, order: int = 2) -> list[float]:
        """[V, V', ..., V^(order)] at phi via a jet."""
        j = jet_var(0, float(phi), 1, order)
        from .exprlang import eval_jet_bindings

        val = eval_jet_bindings(self.expr, {self.var: j, **self.env})
        if not isinstance(val, Jet):
            return [float(val)] + [0.0] * order
        return [float(jet_extract(val, (k,))) for k in range(order + 1)]


def phi4_potential(C: float = 1.0) -> tuple[PotentialSpec, ExprAst]:
    """Quartic double well (phi^2 - C)^2 / 4 and its closed-form kink."""
    if C <= 0:
        raise ValueError("the double well needs C > 0")
    spec = PotentialSpec(
        expr=parse_expr("(phi^2-C)^2/4"),
        var="phi",
        env={"C": float(C)},
        vacua=(-math.sqrt(C), math.sqrt(C)),
    )
    return spec, parse_expr("sqrt(C)*tanh(sqrt(C/2)*x)")


def sine_gordon_potential() -> tuple[PotentialSpec, ExprAst]:
    """1 - cos(phi) between the vacua 0 and 2 pi, kink 4 arctan(e^x)."""
    spec = PotentialSpec(
        expr=parse_expr("1-cos(phi)"),
        var="phi",
        env={},
        vacua=(0.0, 2.0 * math.pi),
    )
    return spec, parse_expr("4*arctan(exp(x))")


# -- shooting solver -------------------------------------------------------------


@dataclass
class KinkProfile:
    C: float
    x: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    h: np.ndarray
    eq14_residual: np.ndarray
    first_integral: np.ndarray
    shoot_param: float
    iterations: int
    max_residual: float
    boundary_gap: float

    def __post_init__(self):
        sign = 1.0 if self.shoot_param >= 0 else -1.0
        df = np.diff(sign * self.f)
        if np.any(df <= 0):
            raise KinkSolverError("profile is not strictly monotone")
        if np.any(self.h <= 0):
            raise KinkSolverError("h must stay positive")

    def csv_rows(self):
        for k in range(len(self.x)):
            yield (
                self.x[k],
                self.f[k],
                self.h[k],
                self.eq14_residual[k],
                self.first_integral[k],
            )


def _rhs_fu(C: float):
    def rhs(x, y):
        f, u = y
        return (u, 0.5 * (f ** 3 - C * f))

    return rhs


def _rhs_full(C: float):
    def rhs(x, y):
        f, u, h = y
        du = 0.5 * (f ** 3 - C * f)
        return (u, du, 2.0 * h * du / u)

    return rhs


def _classify(C: float, s: float, x_class: float, rtol: float) -> int:
    """+1 if the orbit overshoots sqrt(C), -1 if it turns back."""
    root = math.sqrt(C)

    def turn(x, y):
        return y[1]

    turn.terminal = True
    turn.direction = -1.0

    def cross(x, y):
        return y[0] - root

    cross.terminal = True
    cross.direction = 1.0

    sol = solve_ivp(
        _rhs_fu(C),
        (0.0, x_class),
        (0.0, s),
        method="RK45",
        rtol=rtol,
        atol=rtol,
        events=(turn, cross),
        dense_output=False,
    )
    if sol.t_events[1].size:
        return 1
    if sol.t_events[0].size:
        return -1
    # separatrix-grade orbit: classify by the conserved quadratic
    f, u = sol.y[0, -1], sol.y[1, -1]
    return 1 if u * u > 0.25 * (f * f - C) ** 2 else -1


def solve_kink_ode(
    C: float,
    xmax: float,
    n: int = 801,
    tol: float = 1e-8,
    orientation: int = 1,
) -> KinkProfile:
    """Shooting solution of the static-gauge system on [-xmax, xmax].

    Bisection on u(0) between turning and overshooting orbits; the final
    orbit is integrated once with a 4/5-order adaptive pair at tolerance
    tol/10 and mirrored through the origin (f odd, h even).  The residual
    columns re-derive the second derivatives from dense output by
    high-order finite differences, so they measure the integration honestly
    instead of restating the equations.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if xmax < 5.0 / math.sqrt(C):
        raise ValueError(f"xmax must be at least 5/sqrt(C) = {5.0 / math.sqrt(C):g}")
    if n < 64:
        raise ValueError("grid size n must be at least 64")
    root = math.sqrt(C)
    x_class = xmax + 60.0 / root
    lo, hi = 1e-6 * C, float(C)
    if _classify(C, lo, x_class, 1e-12) != -1:
        raise KinkSolverError("lower shooting bracket does not turn back")
    if _classify(C, hi, x_class, 1e-12) != 1:
        raise KinkSolverError("upper shooting bracket does not overshoot")
    iterations = 0
    budget = 200
    while iterations < budget:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # interval resolved to adjacent doubles
        if _classify(C, mid, x_class, 1e-12) == 1:
            hi = mid
        else:
            lo = mid
        iterations += 1
    else:
        raise KinkSolverError("shooting bisection did not converge within budget")
    s = 0.5 * (lo + hi)

    delta = 0.02 / max(1.0, root)
    span = xmax + 4 * delta
    rtol = max(tol / 10.0, 1e-13)
    sol = solve_ivp(
        _rhs_full(C),
        (0.0, span),
        (0.0, s, 1.0),
        method="RK45",
        rtol=rtol,
        atol=rtol,
        dense_output=True,
        max_step=0.02 / max(1.0, root),
    )
    if not sol.success:
        raise KinkSolverError(f"final integration failed: {sol.message}")

    xg = np.linspace(-xmax, xmax, n)
    ax = np.abs(xg)
    vals = sol.sol(ax)
    sgn = np.sign(xg)
    sgn[sgn == 0.0] = 1.0
    f_pos, u_pos, h_pos = vals

    # independent residual route: 4th-order first differences of dense
    # state values (f'' from u, h'' through the state-valued h'), with
    # f odd / u, h even parity for stencil points reflected through 0
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * delta
    st_x = ax[None, :] + offs[:, None]
    raw = sol.sol(np.abs(st_x).reshape(-1)).reshape(3, 5, -1)
    f_st = np.where(st_x < 0.0, -raw[0], raw[0])
    u_st = raw[1]
    h_st = raw[2]
    hp_st = h_st * (f_st ** 3 - C * f_st) / u_st  # odd by parity
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * delta)
    fpp = np.einsum("s,sk->k", d1, u_st)
    hp = np.einsum("s,sk->k", d1, h_st)
    hpp = np.einsum("s,sk->k", d1, hp_st)
    eq14_pos = -fpp - hp / (2.0 * h_pos) * u_pos - C * f_pos + f_pos ** 3
    r_pos = -(hpp / h_pos - hp ** 2 / (2.0 * h_pos ** 2))
    first_int = r_pos + 3.0 * f_pos ** 2

    bgap = abs(float(sol.sol(xmax)[0]) - root)
    profile = KinkProfile(
        C=float(C),
        x=xg,
        f=orientation * sgn * f_pos,
        fprime=u_pos,
        h=h_pos,
        eq14_residual=orientation * sgn * eq14_pos,
        first_integral=first_int,
        shoot_param=orientation * s,
        iterations=iterations,
        max_residual=float(np.max(np.abs(eq14_pos))),
        boundary_gap=bgap,
    )
    drift = float(np.max(np.abs(first_int - C)))
    if drift > 100.0 * tol * max(1.0, C):
        raise KinkSolverError(
            f"first-integral drift {drift:g} exceeds 100*tol; run rejected"
        )
    return profile


# -- fixed-step convergence probe -------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)


def _dopri5_fixed(rhs, y0, x1: float, h: float) -> np.ndarray:
    """Classical Dormand-Prince step at fixed h (the 5th-order solution of
    the embedded 4/5 pair); used only for the grid-convergence study."""
    y = np.asarray(y0, dtype=float)
    x = 0.0
    nsteps = int(round(x1 / h))
    for _ in range(nsteps):
        k = [np.asarray(rhs(x, y))]
        for i in range(1, 6):
            yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
            k.append(np.asarray(rhs(x + h * sum(_DP_A[i]), yi)))
        y = y + h * sum(b * kk for b, kk in zip(_DP_B, k))
        x += h
    return y


def fixed_step_errors(C: float, xmax: float, steps: Sequence[float]) -> list[float]:
    """Sup-norm error of the fixed-step integration against the closed-form
    profile, one entry per step size."""
    root = math.sqrt(C)
    s = 0.5 * C
    errors = []
    for h in steps:
        nchk = int(round(xmax / h))
        xs = np.linspace(h, nchk * h, nchk)
        worst = 0.0
        y = np.array([0.0, s, 1.0])
        rhs = _rhs_full(C)
        x = 0.0
        for xt in xs:
            y = _dopri5_fixed(rhs, y, xt - x, h)
            x = xt
            exact = root * math.tanh(0.5 * root * xt)
            worst = max(worst, abs(y[0] - exact))
        errors.append(worst)
    return errors


# -- flat kinks -------------------------------------------------------------------


@dataclass
class FlatKink:
    potential: PotentialSpec
    x: np.ndarray
    k: np.ndarray
    center_value: float
    _fwd: object = None
    _bwd: object = None

    def __call__(self, x):
        """Dense-output evaluation, clamped to the vacua beyond the solved span."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        lo, hi = self.potential.vacua
        pos = x >= 0
        xmax = float(self.x[-1])
        xp = np.clip(x, -xmax, xmax)
        if np.any(pos):
            out[pos] = self._fwd.sol(xp[pos])[0]
        if np.any(~pos):
            out[~pos] = self._bwd.sol(xp[~pos])[0]
        out = np.clip(out, lo, hi)
        return out if out.ndim else float(out)


def _interior_maximum(p: PotentialSpec) -> float:
    lo, hi = p.vacua
    grid = np.linspace(lo, hi, 401)[1:-1]
    vals = p(grid)
    k = int(np.argmax(vals))
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]

    def vprime(u):
        return p.derivatives(u, 1)[1]

    if vprime(a) * vprime(b) < 0:
        return float(brentq(vprime, a, b, xtol=1e-14))
    return float(grid[k])


def flat_kink_solve(p: PotentialSpec, xmax: float, n: int = 801) -> FlatKink:
    """Solve k' = sqrt(2 V(k)) with k(0) at the potential's interior maximum
    (for an odd well, the midpoint zero); monotone between the vacua."""
    k0 = _interior_maximum(p)
    lo, hi = p.vacua

    def rhs(x, y):
        v = p(float(np.clip(y[0], lo, hi)))
        return (math.sqrt(max(2.0 * v, 0.0)),)

    fwd = solve_ivp(rhs, (0.0, xmax), (k0,), method="RK45", rtol=1e-12, atol=1e-12, dense_output=True)
    bwd = solve_ivp(rhs, (0.0, -xmax), (k0,), method="RK45", rtol=1e-12, atol=1e-12, dense_output=True)
    if not (fwd.success and bwd.success):
        raise KinkSolverError("flat kink integration failed")
    xg = np.linspace(-xmax, xmax, n)
    flat = FlatKink(potential=p, x=xg, k=np.empty(n), center_value=k0, _fwd=fwd, _bwd=bwd)
    flat.k = flat(xg)
    return flat


# -- the lift ---------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedKink:
    """Closed-form lift: field expression and static-gauge 2D metric."""

    potential: PotentialSpec
    f: ExprAst
    metric: MetricSpec


@dataclass
class SampledLift:
    potential: PotentialSpec
    x: np.ndarray
    f: np.ndarray
    g_tt: np.ndarray


_SQRT2_SUB = {"x": parse_expr("x/sqrt(2.0)")}


def lift_flat_kink(
    p: PotentialSpec, k: Union[ExprAst, FlatKink]
) -> Union[LiftedKink, SampledLift]:
    """f(x) = k(x/sqrt(2)) with metric diag(V(f), -1).

    A closed-form k yields a fully symbolic lift (everything downstream is
    exact-jet verifiable); a sampled kink yields sampled arrays.
    """
    if isinstance(k, FlatKink):
        xg = k.x * math.sqrt(2.0)
        f = k(xg / math.sqrt(2.0))
        gtt = p(f)
        if np.any(gtt[1:-1] <= 0.0):
            raise KinkSolverError("V(f) must stay positive on the interior grid")
        return SampledLift(potential=p, x=xg, f=f, g_tt=gtt)
    f_ast = substitute(k, _SQRT2_SUB)
    gtt_ast = substitute(p.expr, {p.var: f_ast})
    m2 = MetricSpec.from_components(
        ("t", "x"),
        {"t,t": gtt_ast, "x,x": parse_expr("-1")},
        env=dict(p.env),
    )
    return LiftedKink(potential=p, f=f_ast, metric=m2)


def _lift_field_data(lift: LiftedKink, xs: np.ndarray):
    pipe = _Pipeline(lift.metric, (np.zeros_like(xs), xs), order=2)
    fj = _expr_jet(lift.f, pipe.seeds)
    hess, box = pipe.hessian(fj)
    return np.asarray(fj.value), _vals(pipe.g), hess, box


def _potential_derivs_at(p: PotentialSpec, fv: np.ndarray, order: int):
    from .exprlang import eval_jet_bindings

    j = jet_var(0, fv, 1, order)
    val = eval_jet_bindings(p.expr, {p.var: j, **p.env})
    if not isinstance(val, Jet):
        return [np.full_like(fv, float(val))] + [np.zeros_like(fv)] * order
    return [np.asarray(jet_extract(val, (k,))) for k in range(order + 1)]


def lift_residuals(
    p: PotentialSpec,
    lift: LiftedKink,
    grid: np.ndarray,
    tolerance: float = 1e-8,
    check_id: str = "lift-residuals",
    case: Optional[str] = None,
) -> CheckReport:
    """Max over the grid of |D^2 f + V'(f)| and of the traceless Hessian."""
    t0 = time.perf_counter()
    xs = np.asarray(grid, dtype=float).reshape(-1)
    fv, g_v, hess, box = _lift_field_data(lift, xs)
    vp = _potential_derivs_at(p, fv, 1)[1]
    res_field = np.abs(box + vp)
    traceless = hess - 0.5 * g_v * box
    res_tracefree = np.max(np.abs(traceless), axis=(0, 1))
    scale = 1.0 + np.maximum(np.abs(box), np.abs(vp)) + np.max(np.abs(hess), axis=(0, 1))
    per_point = np.maximum(res_field, res_tracefree) / scale
    worst = int(np.argmax(per_point))
    return make_report(
        check_id=check_id,
        case=case,
        max_residual=float(per_point[worst]),
        tolerance=tolerance,
        grid=f"{len(xs)} points on [{xs[0]:g}, {xs[-1]:g}]",
        params=dict(p.env),
        worst_point=[0.0, float(xs[worst])],
        wall_time=time.perf_counter() - t0,
        details={
            "field_equation": float(np.max(res_field / scale)),
            "traceless_hessian": float(np.max(res_tracefree / scale)),
        },
    )


def lift_curvature_check(
    p: PotentialSpec,
    lift: LiftedKink,
    grid: np.ndarray,
    tolerance: float = 1e-8,
    check_id: str = "lift-curvature",
    case: Optional[str] = None,
) -> CheckReport:
    """Residual of r(metric) - (-V''(f)) over the grid."""
    t0 = time.perf_counter()
    xs = np.asarray(grid, dtype=float).reshape(-1)
    pts = np.column_stack([np.zeros_like(xs), xs])
    r = curvature_grid(lift.metric, pts)["scalar"]
    fv = _lift_field_data(lift, xs)[0]
    vpp = _potential_derivs_at(p, fv, 2)[2]
    scale = 1.0 + np.maximum(np.abs(r), np.abs(vpp))
    resid = np.abs(r + vpp) / scale
    worst = int(np.argmax(resid))
    return make_report(
        check_id=check_id,
        case=case,
        max_residual=float(resid[worst]),
        tolerance=tolerance,
        grid=f"{len(xs)} points",
        params=dict(p.env),
        worst_point=[0.0, float(xs[worst])],
        wall_time=time.perf_counter() - t0,
    )
