"""Kaluza-Klein machinery: 3D metrics from 2D data, field equations, lattices.

The 2D data is a metric g_{ab}(t,x), a gauge covector a_a(t,x) and a scalar
phi; the assembled 3D metric is

    phi * [[ g - a a , -a ],
           [   -a    , -1 ]]

with no dependence on the third coordinate.  The dual field strength is the
scalar f with curl(a) = sqrt(-det g) * f, which acts as the dilaton of the
reduced theory.  Everything needed for the field-equation residuals (the
scalar curvature r included) is evaluated as a jet-valued field, so the
outer derivative in the gauge-field equation is exact rather than
finite-differenced.

The lattice checks are the variational evidence: they discretize the reduced
action (and, in 3D, the connection functional whose metric variation is the
Cotton tensor), numerically vary field values site by site, and compare the
discrete gradients against the analytic residual formulas at second order in
the spacing.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .exprlang import (
    ExprAst,
    Neg,
    Num,
    binop,
    eval_array,
    free_symbols,
    parse_expr,
    to_text,
)
from .geometry import (
    GeometryError,
    MetricSpec,
    _expr_jet,
    _eps3,
    _Pipeline,
    cotton_grid,
    curvature_grid,
    metric_from_dict,
    metric_to_dict,
)
from .jets import Jet
from .report import CheckReport, Span

__all__ = [
    "ReducedData",
    "FieldEqResiduals",
    "ActionDensity",
    "Lattice2D",
    "Lattice3D",
    "Window1D",
    "assemble_3d_metric",
    "field_strength_f",
    "reduced_action_density",
    "eom_residuals",
    "eom_grid",
    "kk_curvature_relation_check",
    "lattice_variation_check_2d",
    "lattice_cotton_variation_check_3d",
    "reduced_from_dict",
    "reduced_to_dict",
    "load_reduced",
]

ACTION_COUPLING = -1.0 / (8.0 * math.pi ** 2)
COTTON_COUPLING = -1.0 / (4.0 * math.pi ** 2)


@dataclass(frozen=True)
class ReducedData:
    """2D metric, gauge covector (a_t, a_x) and scalar phi sharing one
    parameter environment (held by the metric)."""

    g2: MetricSpec
    a: tuple[ExprAst, ExprAst]
    phi: ExprAst = field(default_factory=lambda: Num(1.0))

    def __post_init__(self):
        if self.g2.dim != 2:
            raise GeometryError("ReducedData requires a 2-dimensional metric")
        allowed = set(self.g2.coords) | set(self.g2.env)
        for comp in (*self.a, self.phi):
            missing = free_symbols(comp) - allowed
            if missing:
                raise GeometryError(f"unresolved symbols in reduced data: {sorted(missing)}")

    @property
    def env(self) -> Mapping[str, float]:
        return self.g2.env

    @property
    def coords(self) -> tuple[str, ...]:
        return self.g2.coords


@dataclass
class FieldEqResiduals:
    point: tuple[float, float]
    eq11: float
    eq12: np.ndarray  # 2x2
    eq14: float
    eq15: np.ndarray  # 2x2
    first_integral_value: float


class ActionDensity(tuple):
    """(density, theta) of the reduced action at a point."""

    def __new__(cls, density: float, theta: float):
        return super().__new__(cls, (density, theta))

    @property
    def density(self):
        return self[0]

    @property
    def theta(self):
        return self[1]


# -- reduced-data file format ---------------------------------------------------

_REDUCED_KEYS = {"g2", "a", "phi"}


def reduced_from_dict(obj: dict) -> ReducedData:
    unknown = set(obj) - _REDUCED_KEYS
    if unknown:
        raise GeometryError(f"unknown reduced-data keys: {sorted(unknown)}")
    g2 = metric_from_dict(obj["g2"])
    a_t, a_x = (parse_expr(s) for s in obj["a"])
    phi = parse_expr(obj.get("phi", "1"))
    return ReducedData(g2=g2, a=(a_t, a_x), phi=phi)


def reduced_to_dict(rd: ReducedData) -> dict:
    return {
        "g2": metric_to_dict(rd.g2),
        "a": [to_text(rd.a[0]), to_text(rd.a[1])],
        "phi": to_text(rd.phi),
    }


def load_reduced(path) -> ReducedData:
    with open(path, "r", encoding="utf-8") as fh:
        return reduced_from_dict(json.load(fh))


# -- assembly -------------------------------------------------------------------


def _is_one(e: ExprAst) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _is_zero(e: ExprAst) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    return binop("*", a, b)


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return binop("-", a, b)


def assemble_3d_metric(rd: ReducedData, third_coord: str = "y") -> MetricSpec:
    """3D metric of the reduction ansatz, as composed ASTs so jets flow
    through unchanged."""
    t, x = rd.coords
    at, ax = rd.a
    phi = rd.phi
    g = rd.g2.components
    entries = {
        (0, 0): _mul(phi, _sub(g[0][0], _mul(at, at))),
        (0, 1): _mul(phi, _sub(g[0][1], _mul(at, ax))),
        (0, 2): _mul(phi, _neg(at)),
        (1, 1): _mul(phi, _sub(g[1][1], _mul(ax, ax))),
        (1, 2): _mul(phi, _neg(ax)),
        (2, 2): _neg(phi),
    }
    return MetricSpec.from_components(
        (t, x, third_coord), entries, env=dict(rd.env), orientation=rd.g2.orientation
    )


def _neg(e: ExprAst) -> ExprAst:
    if _is_zero(e):
        return e
    if isinstance(e, Num):
        return Num(-e.value)
    return Neg(e)


# -- jet pipeline over the 2D data ---------------------------------------------


class _ReducedJets:
    """The 2D metric's curvature pipeline plus jets of the gauge covector a
    and the dual field strength f at a (possibly batched) point."""

    def __init__(self, rd: ReducedData, point, order: int = 4):
        self.pipe = _Pipeline(rd.g2, point, order)
        self.a = [_expr_jet(comp, self.pipe.seeds) for comp in rd.a]
        curl = self.a[1].derivative(0) - self.a[0].derivative(1)
        self.f = curl / self.pipe.sqrt_abs_det(curl.order) * rd.g2.orientation


def _v(j):
    return np.asarray(j.coeffs[0]) if isinstance(j, Jet) else np.asarray(j)


def field_strength_f(rd: ReducedData, p: Sequence[float]) -> float:
    """Dual field strength f = (d_t a_x - d_x a_t)/sqrt(-det g)."""
    jets = _ReducedJets(rd, tuple(float(v) for v in p), order=1)
    return float(_v(jets.f))


def reduced_action_density(rd: ReducedData, p: Sequence[float]) -> ActionDensity:
    jets = _ReducedJets(rd, tuple(float(v) for v in p), order=2)
    f, r = _v(jets.f), _v(jets.pipe.scalar())
    dens = ACTION_COUPLING * _v(jets.pipe.sqrt_abs_det(0)) * (f * r + f ** 3)
    theta = r + f ** 2
    return ActionDensity(float(dens), float(theta))


def eom_residuals(rd: ReducedData, p: Sequence[float]) -> FieldEqResiduals:
    out = eom_grid(rd, np.asarray([p], dtype=float))
    return FieldEqResiduals(
        point=tuple(float(v) for v in p),
        eq11=float(out["eq11"][0]),
        eq12=out["eq12"][..., 0],
        eq14=float(out["eq14"][0]),
        eq15=out["eq15"][..., 0],
        first_integral_value=float(out["first_integral"][0]),
    )


def eom_grid(rd: ReducedData, pts: np.ndarray) -> dict:
    """Batched residuals of the reduced field equations.

    eq11 is the magnitude of eps^{ab} d_b (r + 3 f^2); eq12 the full metric
    equation; eq14/eq15 its trace / trace-free split after eliminating r
    through the first integral (the constant C is read from the parameter
    environment).
    """
    pts = np.asarray(pts, dtype=float)
    jets = _ReducedJets(rd, tuple(pts[:, i] for i in range(2)), order=4)
    pipe, f = jets.pipe, jets.f
    r = pipe.scalar()
    phi_j = r + 3.0 * (f * f)
    dphi = np.array([_v(phi_j.derivative(0)), _v(phi_j.derivative(1))])
    eq11 = np.max(np.abs(dphi), axis=0)

    hessv, boxv = pipe.hessian(f)
    fv = _v(f)
    rv = _v(r)
    gv = pipe.g[0]
    ginvv = pipe.ginv[0]

    core12 = boxv - fv ** 3 - 0.5 * rv * fv
    eq12 = gv * core12 - hessv

    C = rd.env.get("C")
    if C is None:
        raise GeometryError("eom residuals need the constant C in the parameter environment")
    eq14 = boxv - C * fv + fv ** 3
    eq15 = hessv - 0.5 * gv * boxv
    return {
        "eq11": np.atleast_1d(eq11),
        "eq11_vector": np.array([dphi[1], -dphi[0]]) * rd.g2.orientation,
        "eq12": eq12,
        "eq14": np.atleast_1d(eq14),
        "eq15": eq15,
        "first_integral": np.atleast_1d(rv + 3.0 * fv ** 2),
        "f": np.atleast_1d(fv),
        "r": np.atleast_1d(rv),
        "g": gv,
        "g_inv": ginvv,
        "sqrt_abs_det": np.atleast_1d(_v(pipe.sqrt_abs_det(0))),
        "box_f": np.atleast_1d(boxv),
    }


def kk_curvature_relation_check(
    rd: ReducedData,
    grid: np.ndarray,
    tolerance: float = 1e-9,
    check_id: str = "kk-relation",
    case: Optional[str] = None,
) -> CheckReport:
    """Residual of R_3(assembled metric) - (r + f^2/2) over the grid."""
    span = Span()
    phi_val = eval_array(rd.phi, {rd.coords[0]: 0.17, rd.coords[1]: 0.31, **dict(rd.env)})
    if abs(float(phi_val) - 1.0) > 1e-12 or free_symbols(rd.phi):
        raise GeometryError("the curvature relation check requires phi = 1")
    grid = np.asarray(grid, dtype=float)
    if grid.shape[1] == 2:
        pts3 = np.column_stack([grid, np.zeros(len(grid))])
    else:
        pts3 = grid
    m3 = assemble_3d_metric(rd)
    R3 = curvature_grid(m3, pts3)["scalar"]
    red = eom_grid(rd, pts3[:, :2])
    rhs = red["r"] + 0.5 * red["f"] ** 2
    scale = 1.0 + np.maximum(np.abs(R3), np.abs(rhs))
    return span.report(check_id, np.abs(R3 - rhs) / scale, tolerance, pts3, case=case, params=dict(rd.env))


# -- lattice variational checks -------------------------------------------------


@dataclass(frozen=True)
class Lattice2D:
    t0: float
    x0: float
    nt: int
    nx: int

    def axes(self, h: float):
        return (
            self.t0 + h * np.arange(self.nt),
            self.x0 + h * np.arange(self.nx),
        )


@dataclass(frozen=True)
class Lattice3D:
    n: int
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def axes(self, h: float):
        return tuple(self.origin[k] + h * np.arange(self.n) for k in range(3))


@dataclass(frozen=True)
class Window1D:
    """Piecewise-quintic bump: exactly 1 inside flat_radius, exactly 0
    outside support_radius.  Applied numerically so the core fields agree
    with the closed forms to machine precision.

    ``compare_radius`` fixes the physical region whose sites enter the
    gradient comparison; keeping it the same across a refinement ladder
    keeps the measured convergence order clean (otherwise ever more sites
    near the window edge join as the stencil margin shrinks with h)."""

    center: float
    flat_radius: float
    support_radius: float
    compare_radius: Optional[float] = None

    def profile(self, x: np.ndarray) -> np.ndarray:
        u = (np.abs(x - self.center) - self.flat_radius) / (
            self.support_radius - self.flat_radius
        )
        u = np.clip(u, 0.0, 1.0)
        s = 1.0 - (6 * u ** 5 - 15 * u ** 4 + 10 * u ** 3)
        return s


# lattice field "g" + key ("gtt", "gtx", ...) holds the metric component at
# the index pair (i, j), i <= j
_METRIC_COMPONENTS = {
    dim: {"txy"[i] + "txy"[j]: (i, j) for i in range(dim) for j in range(i, dim)}
    for dim in (2, 3)
}


def _trim(F: np.ndarray, dim: int, k: int = 1, lead: int = 0) -> np.ndarray:
    """Drop k cells at both ends of the dim spatial axes that follow lead
    index axes; trailing (batch) axes are kept."""
    return F[(slice(None),) * lead + (slice(k, -k),) * dim]


def _d(F: np.ndarray, axis: int, h: float, dim: int) -> np.ndarray:
    """Central difference (F[i+1] - F[i-1]) / 2h along a spatial axis; the
    result loses one cell at both ends of every spatial axis."""
    hi = [slice(1, -1)] * dim
    lo = [slice(1, -1)] * dim
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (F[tuple(hi)] - F[tuple(lo)]) / (2.0 * h)


def _discrete_christoffel(fields: dict[str, np.ndarray], h: float, dim: int):
    """Determinant and inverse of the lattice metric, and its Christoffel
    symbols by central differences (one cell trimmed per spatial axis)."""
    shape = fields["gtt"].shape
    g = np.empty((dim, dim) + shape)
    for c, (i, j) in _METRIC_COMPONENTS[dim].items():
        g[i, j] = g[j, i] = fields["g" + c]

    def minor(i, j):
        r_ = [k for k in range(dim) if k != i]
        c_ = [k for k in range(dim) if k != j]
        if dim == 2:
            return g[r_[0], c_[0]]
        return g[r_[0], c_[0]] * g[r_[1], c_[1]] - g[r_[0], c_[1]] * g[r_[1], c_[0]]

    first = [minor(0, j) for j in range(dim)]
    det = g[0, 0] * first[0] - g[0, 1] * first[1]
    if dim == 3:
        det = det + g[0, 2] * first[2]
    inv = np.empty_like(g)
    for i in range(dim):
        for j in range(dim):
            inv[j, i] = (first[j] if i == 0 else minor(i, j)) * (-1.0 if (i + j) % 2 else 1.0) / det
    dg = [[None] * dim for _ in range(dim)]
    for i, j in _METRIC_COMPONENTS[dim].values():
        dg[i][j] = dg[j][i] = [_d(g[i, j], l, h, dim) for l in range(dim)]
    inv_c = _trim(inv, dim, lead=2)
    gam = np.empty((dim, dim, dim) + dg[0][0][0].shape)
    for k in range(dim):
        for i in range(dim):
            for j in range(i, dim):
                tot = 0.0
                for l in range(dim):
                    tot = tot + inv_c[k, l] * (dg[l][j][i] + dg[l][i][j] - dg[i][j][l])
                gam[k, i, j] = gam[k, j, i] = 0.5 * tot
    return det, inv, gam


def _action_density_2d(fields: dict[str, np.ndarray], h: float) -> np.ndarray:
    """Discrete reduced-action density: central differences throughout.
    Returns the density two cells in from each end of both spatial axes."""
    det, inv, gam = _discrete_christoffel(fields, h, 2)
    dgam = [[[[_d(gam[k, i, j], l, h, 2) for l in range(2)] for j in range(2)] for i in range(2)] for k in range(2)]
    gam = _trim(gam, 2, lead=3)
    ric = np.empty((2, 2) + dgam[0][0][0][0].shape)
    for s in range(2):
        for m_ in range(2):
            tot = 0.0
            for lam in range(2):
                tot = tot + dgam[lam][lam][s][m_] - dgam[lam][m_][s][lam]
                for rho in range(2):
                    tot = tot + gam[lam, m_, rho] * gam[rho, lam, s]
                    tot = tot - gam[lam, lam, rho] * gam[rho, m_, s]
            ric[s, m_] = tot
    r = np.einsum("sm...,sm...->...", _trim(inv, 2, k=2, lead=2), ric)
    F = _trim(_d(fields["ax"], 0, h, 2) - _d(fields["at"], 1, h, 2), 2)
    return ACTION_COUPLING * (F * r + F ** 3 / (-_trim(det, 2, k=2)))


def _cs_density_3d(fields: dict[str, np.ndarray], h: float) -> np.ndarray:
    """Discrete density of the 3D connection functional (the one whose
    metric variation produces the Cotton tensor).  Returns the density two
    cells in from each end of the three spatial axes."""
    gam = _discrete_christoffel(fields, h, 3)[2]
    dgam = {}

    def dG(b, s, gpair):
        key = (b, s, gpair)
        if key not in dgam:
            dgam[key] = _d(gam[s, gpair[0], gpair[1]], b, h, 3)
        return dgam[key]

    gam_c = _trim(gam, 3, lead=3)
    dens = 0.0
    eps = _eps3(1)
    for perm in itertools.permutations(range(3)):
        sign = eps[perm]
        al, be, ga_ = perm
        for rho in range(3):
            for sig in range(3):
                dens = dens + sign * 0.5 * gam_c[rho, al, sig] * dG(be, sig, (ga_, rho))
                for tau in range(3):
                    dens = dens + sign * (1.0 / 3.0) * gam_c[rho, al, sig] * gam_c[sig, be, tau] * gam_c[tau, ga_, rho]
    return dens / (4.0 * math.pi ** 2)


def _patch_gradient(fields: dict, name: str, sites, h: float, density_fn, eps_scale: float = 1e-6) -> np.ndarray:
    """d(sum density * h^dim)/d(field value at each site) by central
    differences, recomputing only the stencil neighborhood (radius 4) of a
    site.  The patches of all sites are gathered by one fancy index and
    stacked along a trailing batch axis, so the density runs once per sign."""
    sites = np.asarray(sites, dtype=int)
    n, dim = sites.shape
    offsets = np.arange(-4, 5)
    at = tuple(
        (offsets.reshape([9 if a == d else 1 for a in range(dim)] + [1]) + sites[:, d]) % fields[name].shape[d]
        for d in range(dim)
    )
    patch = {k: v[at] for k, v in fields.items()}
    center = (4,) * dim + (np.arange(n),)
    base = patch[name][center]
    eps = eps_scale * (1.0 + np.abs(base))
    sums = []
    for value in (base + eps, base - eps):
        varied = patch[name].copy()
        varied[center] = value
        dens = density_fn({**patch, name: varied}, h)
        # one contiguous row per patch: sums in the order of np.sum over a single core
        sums.append(np.ascontiguousarray(np.moveaxis(dens, -1, 0)).reshape(n, -1).sum(axis=1))
    return (sums[0] - sums[1]) / (2.0 * eps) * h ** dim


def lattice_variation_check_2d(
    rd: ReducedData,
    lattice: Lattice2D,
    h: float,
    window: Optional[Window1D] = None,
    tolerance: Optional[float] = None,
    check_id: str = "lattice-eom-2d",
    case: Optional[str] = None,
) -> CheckReport:
    """Numeric site-by-site variation of the discretized reduced action
    against the analytic field-equation residuals.

    With a window, the closed-form fields are blended to a flat background
    outside the window support (keeping the lattice periodic) and only core
    sites, where the blend is exactly the identity over the full stencil,
    are compared.
    """
    span = Span()
    taxis, xaxis = lattice.axes(h)
    T, X = np.meshgrid(taxis, xaxis, indexing="ij")
    bind = {rd.coords[0]: T, rd.coords[1]: X, **{k: float(v) for k, v in rd.env.items()}}
    g = rd.g2.components
    fields = {
        "gtt": eval_array(g[0][0], bind),
        "gtx": eval_array(g[0][1], bind),
        "gxx": eval_array(g[1][1], bind),
        "at": eval_array(rd.a[0], bind),
        "ax": eval_array(rd.a[1], bind),
    }
    if window is not None:
        w = window.profile(X)
        fields["gtt"] = 1.0 + w * (fields["gtt"] - 1.0)
        fields["gxx"] = -1.0 + w * (fields["gxx"] + 1.0)
        fields["gtx"] = w * fields["gtx"]
        fields["at"] = w * fields["at"]
        fields["ax"] = w * fields["ax"]
        core_x = _core_columns(window, xaxis, margin=4, h=h)
        sites = [(it, ix) for it in range(lattice.nt) for ix in core_x]
    else:
        sites = [(it, ix) for it in range(lattice.nt) for ix in range(lattice.nx)]
    if not sites:
        raise GeometryError("window leaves no comparable core sites; refine the lattice")

    pts = np.array([[taxis[it], xaxis[ix]] for it, ix in sites])
    red = eom_grid(rd, pts)
    ginv = red["g_inv"]
    sqrtg = red["sqrt_abs_det"]
    eq12_up = np.einsum("am...,bn...,mn...->ab...", ginv, ginv, red["eq12"])
    target = {
        "at": ACTION_COUPLING * red["eq11_vector"][0],
        "ax": ACTION_COUPLING * red["eq11_vector"][1],
        "gtt": ACTION_COUPLING * sqrtg * eq12_up[0, 0],
        "gtx": ACTION_COUPLING * sqrtg * eq12_up[0, 1] * 2.0,
        "gxx": ACTION_COUPLING * sqrtg * eq12_up[1, 1],
    }
    dens = _action_density_2d({k: np.pad(v, 2, mode="wrap") for k, v in fields.items()}, h)
    names = ("at", "ax", "gtt", "gtx", "gxx")
    resid = np.array([
        np.abs(_patch_gradient(fields, name, sites, h, _action_density_2d) / h ** 2 - target[name])
        for name in names
    ])
    per_field = {name: float(np.max(row)) for name, row in zip(names, resid)}
    scale = 1.0 + float(np.max(np.abs(dens))) + max(
        float(np.max(np.abs(v))) for v in target.values()
    )
    return span.report(
        check_id,
        resid,
        tolerance if tolerance is not None else 10.0 * h ** 2 * scale,
        pts,
        case=case,
        grid=f"{lattice.nt}x{lattice.nx} lattice, h={h:g}, {len(sites)} sites varied",
        params=dict(rd.env),
        details={"h": h, "scale": scale, "per_field": per_field},
    )


def _core_columns(window: Window1D, xaxis: np.ndarray, margin: int, h: float) -> list[int]:
    radius = window.compare_radius
    if radius is None:
        radius = window.flat_radius - margin * h
    if radius + margin * h > window.flat_radius + 1e-12:
        raise GeometryError("compare_radius leaves no stencil margin inside the flat zone")
    flat = np.abs(xaxis - window.center) <= window.flat_radius
    core = []
    n = len(xaxis)
    for i in range(n):
        if abs(xaxis[i] - window.center) > radius:
            continue
        lo, hi = i - margin, i + margin
        if all(0 <= j < n and flat[j] for j in range(lo, hi + 1)):
            core.append(i)
    return core


def lattice_cotton_variation_check_3d(
    m: MetricSpec,
    lattice: Lattice3D,
    h: float,
    sites: Optional[Sequence[tuple[int, int, int]]] = None,
    tolerance: Optional[float] = None,
    check_id: str = "lattice-cotton-3d",
) -> CheckReport:
    """Numeric variation of the discretized connection functional w.r.t.
    metric values at interior lattice sites, against the Cotton tensor
    density from the exact engine."""
    span = Span()
    axes = lattice.axes(h)
    Tg, Xg, Yg = np.meshgrid(*axes, indexing="ij")
    bind = {m.coords[0]: Tg, m.coords[1]: Xg, m.coords[2]: Yg,
            **{k: float(v) for k, v in m.env.items()}}
    fields = {}
    for c, (i, j) in _METRIC_COMPONENTS[3].items():
        fields["g" + c] = eval_array(m.components[i][j], bind)
    if sites is None:
        stride = max(1, lattice.n // 4)
        rng = range(0, lattice.n, stride)
        sites = [(a, b, c) for a in rng for b in rng for c in rng][:27]
    pts = np.array([[axes[0][a], axes[1][b], axes[2][c]] for a, b, c in sites])
    data = cotton_grid(m, pts, order=3)
    sqrtg = np.sqrt(np.abs(data["det"]))
    cot = data["cotton"]
    comps = _METRIC_COMPONENTS[3]
    resid = np.array([
        np.abs(
            _patch_gradient(fields, "g" + c, sites, h, _cs_density_3d) / h ** 3
            - COTTON_COUPLING * sqrtg * cot[i, j] * (2.0 if i != j else 1.0)
        )
        for c, (i, j) in comps.items()
    ])
    per_comp = {c: float(np.max(row)) for c, row in zip(comps, resid)}
    scale = 1.0 + float(np.max(np.abs(COTTON_COUPLING * sqrtg * cot)))
    return span.report(
        check_id,
        resid,
        tolerance if tolerance is not None else 10.0 * h ** 2 * scale,
        pts,
        grid=f"{lattice.n}^3 lattice, h={h:g}, {len(sites)} sites varied",
        params=dict(m.env),
        details={"h": h, "scale": scale, "per_component": per_comp},
    )

