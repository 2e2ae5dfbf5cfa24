"""Kink machinery: shooting solver, flat-space kinks, and the lifting map.

The static-gauge metric diag(h(x), -1) turns the reduced field equations
into an ODE system: the trace equation combined with the traceless-Hessian
constraint decouples to

    f'' = (f^3 - C f) / 2,        h'/h = 2 f''/f',

so the solver integrates (f, u=f', h) with f(0) = 0, h(0) = 1 and shoots on
u(0).  The kink is the separatrix between orbits that turn back (u hits 0
below the vacuum) and orbits that overshoot (f crosses sqrt(C)); a
multisection on that dichotomy never consults the closed form.  Each round
classifies 31 evenly spaced points of the bracket in one batch of orbits,
integrated together with the DOP853 tableau at a tolerance set by the point
spacing, and keeps the interval where the decisions change sign; decisions
that are not monotone in u(0) fail the solve.  It stops at the
integrator's resolution, a bracket 2e-13 C wide: below that width the
decisions follow the integration error of the classifying orbit, not the
separatrix.  Both ends are then classified again at the tightest
tolerance, so a wrong early decision fails the solve instead of moving it.
The final orbit, the grid-convergence probe and the flat kinks share one
fixed-step Dormand-Prince integrator and its continuous extension.  Both
tableaux are module constants, so the runtime needs numpy alone.

The flat-space solver integrates the first-order quadrature form
k' = sqrt(2 V(k)) from the potential's interior maximum, which is the
profile's inflection value, in both directions in one orbit.  The lift
sends a flat kink k to the curved pair f(x) = k(x/sqrt(2)),
g = diag(V(f), -1); the residual and curvature checks of that
construction are exact-jet evaluations, so the lifting theorem is verified
at engine precision, with the vanishing-at-the-vacua normalization of V as
the stated precondition.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .exprlang import ExprAst, _expr_jet, coordinate_seeds, eval_array, parse_expr, substitute
from .geometry import MetricSpec, _metric_pipeline, curvature_grid
from .jets import jet_extract
from .report import CheckReport, Span

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
        coordinate_seeds((self.var,), (0.0,), self.env, 0)  # no parameter may shadow the field variable
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

    def derivatives(self, phi, order: int = 2) -> list:
        """[V, V', ..., V^(order)] at phi via a jet: floats for a float phi,
        arrays of phi's shape for an array."""
        x = float(phi) if np.ndim(phi) == 0 else np.asarray(phi, dtype=float)
        val = _expr_jet(self.expr, coordinate_seeds((self.var,), (x,), self.env, order))
        coeffs = [jet_extract(val, (k,)) for k in range(order + 1)]
        return [float(c) for c in coeffs] if isinstance(x, float) else [np.full_like(x, c) for c in coeffs]


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
    bracket_width: float
    max_residual: float
    boundary_gap: float

    def __post_init__(self):
        columns = (self.x, self.f, self.fprime, self.h, self.eq14_residual, self.first_integral)
        if not all(np.isfinite(c).all() for c in columns):  # and a NaN fails every test below
            raise KinkSolverError("profile holds a non-finite value")
        sign = 1.0 if self.shoot_param >= 0 else -1.0
        if not np.all(np.diff(sign * self.f) > 0):
            raise KinkSolverError("profile is not strictly monotone")
        if not np.all(self.h > 0):
            raise KinkSolverError("h must stay positive")


# The Dormand-Prince 8(5,3) tableau (DOP853), as scipy's
# dop853_coefficients holds it: stage rows 1..11 of A, each cut to the
# stages it reads, the weights B, and the error rows E5 and E3 over those 12
# stages and the slope at the step's end.  Hairer, Norsett and Wanner,
# Solving ODEs I, sec. II.5 and II.10.
_DOP853_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
_DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
# The right-hand side is autonomous, so the stage nodes are not needed; the
# weights B are one more stage row, the one that lands on the step's end.
_STAGE_ROWS = tuple(np.array(row) for row in (*_DOP853_A, _DOP853_B))
_ERROR_ROWS = np.array([_DOP853_E5, _DOP853_E3])


def _initial_step(C: float, s: np.ndarray, rtol: np.ndarray, atol: np.ndarray, x_end: float) -> np.ndarray:
    """scipy's select_initial_step for an order-7 error estimate, one orbit
    (f, u)(0) = (0, s[i]) per entry."""

    def rms(a, b):
        return np.sqrt(0.5 * (a * a + b * b))

    scale_f, scale_u = atol, atol + np.abs(s) * rtol
    d0, d1 = rms(0.0, s / scale_u), rms(s / scale_f, 0.0)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), x_end)
    f1 = h0 * s  # one Euler step moves f only, so of the slope only u' changes
    d2 = rms(0.0, 0.5 * f1 * (f1 * f1 - C) / scale_u) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0),
    )
    return np.minimum(np.minimum(100.0 * h0, h1), x_end)


def _classify_batch(C: float, s, x_class: float, rtol) -> np.ndarray:
    """Side of the separatrix of each orbit (f, u)(0) = (0, s[i]): +1 if it
    overshoots sqrt(C), -1 if it turns back.

    All orbits advance together with the 8th-order Dormand-Prince pair and
    scipy's step-size controller (error exponent -1/8, safety 0.9, factor in
    [0.2, 10], no growth right after a rejection), one adaptive step per
    orbit and lockstep iteration.  rtol may differ per orbit; atol is
    rtol min(1, C/2), so at small C the absolute part does not swamp rtol.
    At each accepted step end f >= sqrt(C) gives +1 and u <= 0 gives -1; an
    orbit still undecided at x_class is classified by the conserved
    quadratic.  A decided orbit leaves the batch.  A non-finite state or
    error estimate, or a step below 10 ulp of x, raises KinkSolverError.

    Row k of the work array Z holds stage k as [f, u, u']: its first two
    thirds are the stage state, its last two the stage derivative.  Row 0 is
    the current state, the last row the step's end.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    m = s.size
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (m,))
    atol = rtol * min(1.0, 0.5 * C)
    root = math.sqrt(C)
    side = np.zeros(m, dtype=int)
    live = np.arange(m)  # index into s of each orbit still in the batch
    row0 = np.concatenate((np.zeros(m), s, np.zeros(m)))
    with np.errstate(all="ignore"):
        h = _initial_step(C, s, rtol, atol, x_class)
        if not (np.isfinite(s).all() and np.isfinite(h).all()):
            raise KinkSolverError("non-finite orbit state in the classification batch")
        t = np.zeros(m)
        rejected = np.zeros(m, dtype=bool)
        while m:
            Z = np.empty((len(_STAGE_ROWS) + 1, 3 * m))
            Z[0] = row0
            y, y_new = Z[0, : 2 * m], Z[-1, : 2 * m]
            f, u = Z[0, :m], Z[0, m : 2 * m]
            stages = [
                (a, Z[:k, m:], Z[k, : 2 * m], Z[k, :m], Z[k, 2 * m :]) for k, a in enumerate(_STAGE_ROWS, 1)
            ]
            done = np.zeros(m, dtype=bool)
            while not done.any():
                t_new = np.minimum(t + h, x_class)
                h = t_new - t
                h2 = np.tile(h, 2)
                for a, derivs, state, fk, uk in stages:
                    np.add(y, h2 * (a @ derivs), out=state)
                    np.multiply(0.5 * fk, fk * fk - C, out=uk)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)).reshape(2, m) * rtol
                e = (_ERROR_ROWS @ Z[:, m:]).reshape(2, 2, m) / scale
                e *= e
                e5, e3 = e.sum(axis=1)
                err = h * e5 / np.sqrt(2.0 * np.maximum(e5 + 0.01 * e3, 1e-300))
                if not err.max() < math.inf:
                    raise KinkSolverError("non-finite orbit state in the classification batch")
                accepted = err < 1.0
                h = h * np.clip(0.9 * err**-0.125, 0.2, np.where(rejected, 1.0, 10.0))
                rejected = ~accepted
                if rejected.any():
                    Z[0] = np.where(np.tile(accepted, 3), Z[-1], Z[0])
                    t = np.where(accepted, t_new, t)
                else:
                    Z[0] = Z[-1]
                    t = t_new
                if (h < 10.0 * np.spacing(t)).any():
                    raise KinkSolverError("step size collapsed in the classification batch")
                done = (f >= root) | (u <= 0.0) | (t >= x_class)
            fd, ud = f[done], u[done]
            side[live[done]] = np.where(
                fd >= root, 1, np.where(ud <= 0.0, -1, np.where(ud * ud > 0.25 * (fd * fd - C) ** 2, 1, -1))
            )
            keep = ~done
            live, t, h, rejected = live[keep], t[keep], h[keep], rejected[keep]
            row0 = Z[0].reshape(3, m)[:, keep].reshape(-1)
            rtol, atol = rtol[keep], atol[keep]
            m = live.size
    return side


# Bracket width, relative to C, at which the multisection stops: below it a
# DOP853 trace at rtol 1e-12 shows the decisions following the integration
# error of the classifying orbit rather than the separatrix.
_RESOLUTION = 2e-13
# rtol of the bracket-end classifications, the tightest of the schedule
_CLASS_RTOL = 1e-12
# A classification at rtol r goes wrong only for orbits within about r C / 24
# of the separatrix.  A round classifies at 1e-2 times its point spacing over
# C, a decade clear for any point farther than spacing/240 from it.  The
# first round's middle point, half-way across [1e-6 C, C], sits only 5e-7 C
# above it and first goes wrong at rtol 1.8e-5; the loosest rtol 1e-7 keeps
# it two decades clear.
_LOOSEST_RTOL = 1e-7
# Interior points per multisection round.  2^5 - 1 puts the bisection's first
# midpoint among the first round's points, so the margin above carries over;
# the bracket shrinks 32x per round, 9 rounds from C to 2e-13 C.  Fewer points
# cost more rounds (15: 11 rounds, classification about 20 % slower); 63
# saves one round but doubles the orbits per step, and measured no faster.
_MULTISECTION = 31
_FRACTIONS = np.arange(_MULTISECTION + 2) / (_MULTISECTION + 1)


def _require_finite_positive(**values: float) -> None:
    """ValueError naming the first argument that is not a finite positive
    number (a NaN fails every comparison, so `x <= 0` alone lets it by; a
    string from a config file is not a number at all)."""
    for name, v in values.items():
        if not (isinstance(v, numbers.Real) and math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def solve_kink_ode(
    C: float,
    xmax: float,
    n: int = 801,
    tol: float = 1e-8,
    orientation: int = 1,
) -> KinkProfile:
    """Shooting solution of the static-gauge system on [-xmax, xmax].

    Multisection on u(0) between turning and overshooting orbits, starting
    from [1e-6 C, C].  Each round classifies the K = 31 interior points
    lo + j (hi - lo)/32 in one `_classify_batch` call at rtol
    1e-2 (hi - lo)/32/C, clipped to [1e-12, 1e-7]: the tolerance follows the
    point spacing, so an orbit far from the separatrix decides within a
    loose tolerance.  The first round's batch also holds the two bracket
    ends at rtol 1e-12.  The bracket becomes the one interval where the
    decisions turn from -1 to +1; a +1 below a -1 raises KinkSolverError.
    The loop stops at width 2e-13 C (9 rounds), and both bracket ends are
    classified again at 1e-12; a bracket that no longer straddles the
    separatrix raises KinkSolverError.  `iterations` counts the rounds.
    The final orbit is one `_dopri5_orbit` run at the fixed step
    delta = 0.02/max(1, sqrt(C)), mirrored through the origin (f odd, h
    even) and read through its continuous extension; the residual columns
    re-derive the second derivatives from it by finite differences, so they
    measure the integration honestly instead of restating the equations.
    tol only bounds the first-integral drift, 100 tol max(1, C), and buys
    no accuracy: the drift is the stencils' floor (1.25e-7 at C = 1), which
    a smaller tol rejects.  A non-finite profile raises KinkSolverError.
    """
    _require_finite_positive(C=C, xmax=xmax, tol=tol)
    if xmax < 5.0 / math.sqrt(C):
        raise ValueError(f"xmax must be at least 5/sqrt(C) = {5.0 / math.sqrt(C):g}")
    if n < 64:
        raise ValueError("grid size n must be at least 64")
    root = math.sqrt(C)
    x_class = xmax + 60.0 / root
    lo, hi = 1e-6 * C, float(C)
    resolution = _RESOLUTION * C
    rounds = 0
    while hi - lo > resolution:
        grid = lo + (hi - lo) * _FRACTIONS
        grid[-1] = hi
        rtol = min(max(1e-2 * (hi - lo) / (_MULTISECTION + 1) / C, _CLASS_RTOL), _LOOSEST_RTOL)
        if rounds == 0:  # the bracket ends ride in the first batch
            rtols = np.full(grid.size, rtol)
            rtols[[0, -1]] = _CLASS_RTOL
            sides = _classify_batch(C, grid, x_class, rtols)
            if sides[0] != -1:
                raise KinkSolverError("lower shooting bracket does not turn back")
            if sides[-1] != 1:
                raise KinkSolverError("upper shooting bracket does not overshoot")
        else:
            sides = np.concatenate(([-1], _classify_batch(C, grid[1:-1], x_class, rtol), [1]))
        rounds += 1
        if np.any(np.diff(sides) < 0):
            raise KinkSolverError(f"round {rounds} puts an overshooting orbit below a turning one")
        j = int(np.count_nonzero(sides == -1))
        lo, hi = float(grid[j - 1]), float(grid[j])
    if list(_classify_batch(C, (lo, hi), x_class, _CLASS_RTOL)) != [-1, 1]:
        raise KinkSolverError(f"shooting bracket [{lo!r}, {hi!r}] does not straddle the separatrix")
    s = 0.5 * (lo + hi)

    delta = 0.02 / max(1.0, root)
    Y, K = _dopri5_orbit(_static_gauge_slope(C), (0.0, s, 1.0), delta, math.ceil((xmax + 4 * delta) / delta))

    xg = np.linspace(-xmax, xmax, n)
    ax = np.abs(xg)
    sgn = np.where(xg < 0.0, -1.0, 1.0)

    # independent residual route: 4th-order first differences of dense
    # state values (f'' from u, h'' through the state-valued h'), with
    # f odd / u, h even parity for stencil points reflected through 0; the
    # middle stencil row is the grid itself
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * delta
    st_x = ax[None, :] + offs[:, None]
    raw = _dopri5_dense(Y, K, delta, np.abs(st_x))
    f_pos, u_pos, h_pos = raw[:, 2]
    _, u_st, h_st = raw
    f_st = np.where(st_x < 0.0, -raw[0], raw[0])
    hp_st = h_st * (f_st ** 3 - C * f_st) / u_st  # odd by parity
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * delta)
    fpp = np.einsum("s,sk->k", d1, u_st)
    hp = np.einsum("s,sk->k", d1, h_st)
    hpp = np.einsum("s,sk->k", d1, hp_st)
    eq14_pos = -fpp - hp / (2.0 * h_pos) * u_pos - C * f_pos + f_pos ** 3
    r_pos = -(hpp / h_pos - hp ** 2 / (2.0 * h_pos ** 2))
    first_int = r_pos + 3.0 * f_pos ** 2
    profile = KinkProfile(
        C=float(C),
        x=xg,
        f=orientation * sgn * f_pos,
        fprime=u_pos,
        h=h_pos,
        eq14_residual=orientation * sgn * eq14_pos,
        first_integral=first_int,
        shoot_param=orientation * s,
        iterations=rounds,
        bracket_width=hi - lo,
        max_residual=float(np.max(np.abs(eq14_pos))),
        boundary_gap=abs(float(f_pos[-1]) - root),  # the grid ends at xmax
    )
    drift = float(np.max(np.abs(first_int - C)))
    if not drift <= 100.0 * tol * max(1.0, C):
        raise KinkSolverError(
            f"first-integral drift {drift:g} exceeds 100*tol; run rejected"
        )
    return profile


# -- the fixed-step orbit --------------------------------------------------------

# The Dormand-Prince 5(4) tableau, as scipy's RK45 holds it: stage rows 1..5
# of A, each cut to the stages it reads, the weights B as the row of the
# step's end (the right-hand side is autonomous), and the matrix P of the
# continuous extension.  Dormand and Prince, J. Comput. Appl. Math. 6 (1980)
# 19-26; Hairer, Norsett and Wanner, Solving ODEs I, sec. II.5-II.6.
_RK45_A = (
    (0.2,),
    (0.075, 0.225),
    (0.9777777777777777, -3.7333333333333334, 3.5555555555555554),
    (2.9525986892242035, -11.595793324188385, 9.822892851699436, -0.2908093278463649),
    (2.8462752525252526, -10.757575757575758, 8.906422717743473, 0.2784090909090909, -0.2735313036020583),
)
_RK45_B = (
    0.09114583333333333, 0.0, 0.44923629829290207, 0.6510416666666666, -0.322376179245283,
    0.13095238095238096,
)
_RK45_P = np.array(
    [
        [1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 4.023133379230305, -6.249321565289, 2.675424484351598],
        [0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504],
        [0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912],
        [0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455],
        [0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144],
    ]
)
_DP_ROWS = (*_RK45_A, _RK45_B)


def _static_gauge_slope(C: float):
    """(f, u, h)' of the static-gauge orbit, for `_dopri5_orbit`."""

    def slope(y):
        f, u, g = y
        du = 0.5 * (f ** 3 - C * f)
        return (u, du, 2.0 * g * du / u)

    return slope


def _dopri5_orbit(rhs, y0, h: float, nsteps: int) -> tuple[np.ndarray, np.ndarray]:
    """`nsteps` fixed steps h of the 5th-order Dormand-Prince solution of the
    autonomous system y' = rhs(y) from y0, rhs taking and giving a sequence
    of d floats: Y[n], shape (nsteps + 1, d), is the state after n steps,
    K[n], shape (nsteps, 7, d), the stage slopes of step n, the last at its
    end (first same as last).  Stages sum a_j k_j from 0 in tableau order,
    so Y is y + h sum(a k) bit for bit; Python floats beat d-element arrays
    here.  Rows from a step that overflows or divides by zero on are NaN:
    callers judge the rows."""
    y = [float(v) for v in y0]
    d = len(y)
    states, slopes = [y], []
    try:
        k = [rhs(y)]
        for _ in range(nsteps):
            for row in _DP_ROWS:
                stage = []
                for c in range(d):
                    s = 0.0
                    for a, kj in zip(row, k):
                        s += a * kj[c]
                    stage.append(y[c] + h * s)
                k.append(rhs(stage))
            y = stage
            states.append(y)
            slopes.append(k)
            k = [k[-1]]
    except (ZeroDivisionError, OverflowError):
        pass  # this step's rows and all later ones stay NaN
    Y = np.full((nsteps + 1, d), np.nan)
    K = np.full((nsteps, 7, d), np.nan)
    Y[: len(states)] = np.fromiter(chain.from_iterable(states), float).reshape(-1, d)
    K[: len(slopes)] = np.fromiter(chain.from_iterable(chain.from_iterable(slopes)), float).reshape(-1, 7, d)
    return Y, K


# bench/tracing.py counts the calls of `kink.solve_ivp` as `kink.ivp`; the
# name now stands for the one integrator that every kink orbit runs on.
solve_ivp = _dopri5_orbit


def _dopri5_dense(Y: np.ndarray, K: np.ndarray, h: float, x) -> np.ndarray:
    """Continuous extension of a `_dopri5_orbit` run at abscissae x >= 0,
    shape (d, *x.shape): Y[k] + h (K[k]^T P)(theta, ..., theta^4) on step
    k = floor(x/h), clipped to the last, theta = x/h - k, P the RK45
    interpolant (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.6)."""
    t = np.asarray(x, dtype=float) / h
    k = np.clip(np.floor(t), 0, len(K) - 1).astype(int)
    powers = np.cumprod(np.broadcast_to(t - k, (4,) + t.shape), axis=0)  # theta, ..., theta^4
    y = Y[k] + h * np.einsum("...sc,sj,j...->...c", K[k], _RK45_P, powers)
    return np.moveaxis(y, -1, 0)


def fixed_step_errors(C: float, xmax: float, steps: Sequence[float]) -> list[float]:
    """Sup-norm error against the closed form at the step ends in (0, xmax]
    of one `_dopri5_orbit` run from u(0) = C/2 per step size (NaN if any
    step is non-finite)."""
    root = math.sqrt(C)
    errors = []
    for h in steps:
        nsteps = int(round(xmax / h))
        Y, _ = _dopri5_orbit(_static_gauge_slope(C), (0.0, 0.5 * C, 1.0), h, nsteps)
        exact = [root * math.tanh(0.5 * root * x) for x in np.linspace(h, nsteps * h, nsteps)]
        errors.append(float(np.max(np.abs(Y[1:, 0] - exact))))
    return errors


# -- flat kinks -------------------------------------------------------------------


@dataclass
class FlatKink:
    potential: PotentialSpec
    x: np.ndarray
    k: np.ndarray
    center_value: float
    # (Y, K, step) of the `_dopri5_orbit` run behind the dense output: state
    # (k(x), k(-x)) at x >= 0
    _orbit: tuple = None

    def __call__(self, x):
        """Dense-output evaluation, clamped to the vacua beyond the solved span."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.potential.vacua
        xmax = float(self.x[-1])
        both = _dopri5_dense(*self._orbit, np.abs(np.clip(x, -xmax, xmax)))
        out = np.clip(np.where(x >= 0, both[0], both[1]), lo, hi)
        return out if out.ndim else float(out)


def _interior_maximum(p: PotentialSpec) -> float:
    """The largest of V on a 399-point interior grid, refined by bisecting
    the sign change of V' between its neighbours, from the grid point itself
    down to brentq's default tolerance, 1e-14 + 4 eps |x|."""
    lo, hi = p.vacua
    grid = np.linspace(lo, hi, 401)[1:-1]
    k = int(np.argmax(p(grid)))
    a = float(grid[max(0, k - 1)])
    m = float(grid[k])
    b = float(grid[min(len(grid) - 1, k + 1)])

    def vprime(u):
        return p.derivatives(u, 1)[1]

    va = vprime(a)
    if not va * vprime(b) < 0:
        return m
    while b - a > 1e-14 + 4.0 * np.finfo(float).eps * max(abs(a), abs(b)):
        vm = vprime(m)
        if vm == 0.0:
            return m
        if (vm < 0.0) == (va < 0.0):
            a, va = m, vm
        else:
            b = m
        m = 0.5 * (a + b)
    return m


# Steps per kink width (hi - lo)/k'(0) of the flat-kink orbit.  Max error of
# flat_kink_solve(p, 10.0) against the closed forms on its 801-point grid
# (and on 4001 points, between the grid's):
#
#   steps/width   phi^4, tanh(x/sqrt 2)   sine-Gordon, 4 arctan e^x
#        96         4.8e-12 (5.1e-12)       3.1e-11 (3.2e-11)
#       108         2.0e-12 (2.9e-12)       1.6e-11 (1.7e-11)
#       128         1.2e-12 (1.2e-12)       3.9e-12 (7.2e-12)
#       160         3.9e-13 (4.2e-13)       2.5e-12 (2.5e-12)
#
# An adaptive RK45 run at rtol = atol = 1e-12 misses by 1.3e-11 (1.6e-11)
# and 3.1e-11 (6.0e-11).  108 is the coarsest of these that beats it on
# both, by a factor near 2 or more; every step costs six evaluations of V,
# so a finer one costs time in proportion.
_FLAT_STEPS_PER_WIDTH = 108
# Longest flat-kink orbit, about 900 kink widths each way: a larger xmax
# raises instead of running for minutes (0.25 ms a step for phi^4) with the
# whole orbit in memory.
_FLAT_MAX_STEPS = 100_000


def flat_kink_solve(p: PotentialSpec, xmax: float, n: int = 801) -> FlatKink:
    """Solve k' = sqrt(2 V(k)) with k(0) at the potential's interior maximum
    (for an odd well, the midpoint zero); monotone between the vacua.

    One `_dopri5_orbit` run carries both halves as the state (k(x), k(-x)),
    x >= 0, so each stage evaluates V once, on two values clamped to the
    vacua.  The step is the kink width (hi - lo)/k'(0) over
    `_FLAT_STEPS_PER_WIDTH`, so a potential scaled by lambda^2 takes steps
    1/lambda as long and keeps its error.  An xmax that needs more than
    `_FLAT_MAX_STEPS` steps raises ValueError; a non-finite orbit raises
    KinkSolverError."""
    _require_finite_positive(xmax=xmax)
    if n < 2:
        raise ValueError("grid size n must be at least 2")
    k0 = _interior_maximum(p)
    lo, hi = p.vacua

    def rhs(z):
        v_fwd, v_bwd = p(np.array(z).clip(lo, hi)).tolist()
        return (math.sqrt(max(2.0 * v_fwd, 0.0)), -math.sqrt(max(2.0 * v_bwd, 0.0)))

    step = (hi - lo) / (_FLAT_STEPS_PER_WIDTH * math.sqrt(2.0 * p(k0)))
    nsteps = math.ceil(xmax / step)
    if nsteps > _FLAT_MAX_STEPS:
        raise ValueError(f"xmax = {xmax:g} needs {nsteps} steps of {step:.3g}; at most {_FLAT_MAX_STEPS} are taken")
    Y, K = _dopri5_orbit(rhs, (k0, k0), step, nsteps)
    if not (np.isfinite(Y).all() and np.isfinite(K).all()):
        raise KinkSolverError("flat kink integration failed")
    xg = np.linspace(-xmax, xmax, n)
    flat = FlatKink(potential=p, x=xg, k=np.empty(n), center_value=k0, _orbit=(Y, K, step))
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
    pipe, seeds = _metric_pipeline(lift.metric, (np.zeros_like(xs), xs), 2)
    fj = _expr_jet(lift.f, seeds)
    hess, box = pipe.hessian(fj)
    return np.asarray(fj.value), pipe.g[0], hess, box


def lift_residuals(
    p: PotentialSpec,
    lift: LiftedKink,
    grid: np.ndarray,
    tolerance: float = 1e-8,
    check_id: str = "lift-residuals",
    case: Optional[str] = None,
) -> CheckReport:
    """Max over the grid of |D^2 f + V'(f)| and of the traceless Hessian."""
    span = Span()
    xs = np.asarray(grid, dtype=float).reshape(-1)
    fv, g_v, hess, box = _lift_field_data(lift, xs)
    vp = p.derivatives(fv, 1)[1]
    res_field = np.abs(box + vp)
    traceless = hess - 0.5 * g_v * box
    res_tracefree = np.max(np.abs(traceless), axis=(0, 1))
    scale = 1.0 + np.maximum(np.abs(box), np.abs(vp)) + np.max(np.abs(hess), axis=(0, 1))
    return span.report(
        check_id,
        np.maximum(res_field, res_tracefree) / scale,
        tolerance,
        np.column_stack([np.zeros_like(xs), xs]),
        case=case,
        grid=f"{len(xs)} points on [{xs[0]:g}, {xs[-1]:g}]",
        params=dict(p.env),
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
    span = Span()
    xs = np.asarray(grid, dtype=float).reshape(-1)
    pts = np.column_stack([np.zeros_like(xs), xs])
    r = curvature_grid(lift.metric, pts)["scalar"]
    fv = _lift_field_data(lift, xs)[0]
    vpp = p.derivatives(fv, 2)[2]
    scale = 1.0 + np.maximum(np.abs(r), np.abs(vpp))
    return span.report(check_id, np.abs(r + vpp) / scale, tolerance, pts, case=case, params=dict(p.env))
