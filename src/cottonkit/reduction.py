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
Cotton tensor) with periodic central differences, take the exact gradient of
the discrete action with respect to the field value at each varied site (by
reverse mode, one pass per lattice), and compare it against the analytic
residual formulas at second order in the spacing.  The tests cross-check
that gradient against central differences of the action.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exprlang import (
    BinOp,
    ExprAst,
    Neg,
    Num,
    eval_array,
    eval_tensor,
    free_symbols,
    parse_expr,
    to_text,
)
from .geometry import (
    _COFACTORS,
    GeometryError,
    MetricSpec,
    _metric_pipeline,
    cotton_grid,
    curvature_grid,
    metric_from_dict,
    metric_to_dict,
)
from .jets import Jet, JetSpace, partials
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
    return BinOp("*", a, b)


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


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
    """The 2D metric's curvature pipeline plus the jet of the dual field
    strength f at a (possibly batched) point."""

    def __init__(self, rd: ReducedData, point, order: int = 4):
        self.pipe, seeds = _metric_pipeline(rd.g2, point, order)
        da = partials(eval_tensor(rd.a, seeds), 2)  # [c, l, mu] = d_l a_mu
        curl = Jet(JetSpace.for_length(len(da), 2), da[:, 0, 1] - da[:, 1, 0])
        self.f = curl / self.pipe.sqrt_abs_det(curl.order) * rd.g2.orientation


def field_strength_f(rd: ReducedData, p: Sequence[float]) -> float:
    """Dual field strength f = (d_t a_x - d_x a_t)/sqrt(-det g)."""
    jets = _ReducedJets(rd, tuple(float(v) for v in p), order=1)
    return float(jets.f.value)


def reduced_action_density(rd: ReducedData, p: Sequence[float]) -> ActionDensity:
    jets = _ReducedJets(rd, tuple(float(v) for v in p), order=2)
    f, r = jets.f.value, jets.pipe.scalar().value
    dens = ACTION_COUPLING * jets.pipe.sqrt_abs_det(0).value * (f * r + f ** 3)
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
    dphi = np.array([phi_j.derivative(0).value, phi_j.derivative(1).value])
    eq11 = np.max(np.abs(dphi), axis=0)

    hessv, boxv = pipe.hessian(f)
    fv = f.value
    rv = r.value
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
        "sqrt_abs_det": np.atleast_1d(pipe.sqrt_abs_det(0).value),
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

    def __post_init__(self):
        radii = (self.center, self.flat_radius, self.support_radius, self.compare_radius)
        if not all(math.isfinite(r) for r in radii if r is not None):
            raise GeometryError(f"window center and radii must be finite, got {radii}")
        if not self.support_radius > self.flat_radius:
            raise GeometryError(
                f"window support_radius {self.support_radius} must exceed flat_radius {self.flat_radius}"
            )

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


# A lattice block is a dict of field arrays whose last dim axes are
# periodic spatial axes; any axes before them (index axes of a tensor, a
# batch axis of patches) are carried along, so spatial axis l of any array
# is axis l - dim.  A derivative index comes first: dF[l] = d_l F.

def _dp(F: np.ndarray, axis: int, h: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Periodic central difference (F[i+1] - F[i-1]) / 2h along an axis.

    One flat shift by the axis stride differences the interior cells of
    every line at once; the two end cells of each line are then overwritten
    with their periodic neighbours.  ``out`` must be C-contiguous."""
    F = np.ascontiguousarray(F)
    out = np.empty(F.shape) if out is None else out
    axis %= F.ndim
    stride = math.prod(F.shape[axis + 1:])
    flat, flat_out = F.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * stride:], flat[:-2 * stride], out=flat_out[stride:-stride])
    lead = (slice(None),) * axis
    np.subtract(F[lead + (1,)], F[lead + (-1,)], out=out[lead + (0,)])
    np.subtract(F[lead + (0,)], F[lead + (-2,)], out=out[lead + (-1,)])
    out /= 2.0 * h
    return out


def _diff_all(F: np.ndarray, h: float, dim: int) -> np.ndarray:
    """dF[l] = d_l F for every spatial axis l."""
    out = np.empty((dim,) + F.shape)
    for l in range(dim):
        _dp(F, l - dim, h, out=out[l])
    return out


def _diff_adjoint(bar_dF: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Adjoint of _diff_all: the periodic central difference is
    antisymmetric, so the adjoint of d_l is -d_l."""
    out = np.zeros(bar_dF.shape[1:])
    for l in range(dim):
        out -= _dp(bar_dF[l], l - dim, h)
    return out


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cellwise matrix product over the two leading index axes, summed in
    index order."""
    out = A[:, 0, None] * B[None, 0]
    for k in range(1, A.shape[1]):
        out += A[:, k, None] * B[None, k]
    return out


def _christoffel(fields: dict[str, np.ndarray], h: float, dim: int):
    """Determinant, inverse and Christoffel symbols Gamma^k_{ij} of the
    lattice metric by central differences, and the combination
    E[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij (Gamma^k_ij = 1/2 g^kl E_lij)
    that the adjoint reads."""
    shape = fields["gtt"].shape
    g = np.empty((dim, dim) + shape)
    for c, (i, j) in _METRIC_COMPONENTS[dim].items():
        g[i, j] = g[j, i] = fields["g" + c]
    # minors at the upper triangle, row by row (see geometry._cofactor_layout)
    i, j, sign, factors = _COFACTORS[dim]
    minors = g[factors[0]]
    if dim == 3:
        prod = minors * g[factors[1]]
        minors = prod[:6] - prod[6:]
    # expansion along the first row, whose minors come first
    det = g[0, 0] * minors[0] - g[0, 1] * minors[1]
    if dim == 3:
        det = det + g[0, 2] * minors[2]
    inv = np.empty_like(g)
    inv[i, j] = inv[j, i] = minors * sign.reshape((-1,) + (1,) * len(shape)) / det
    dg = _diff_all(g, h, dim)
    E = np.einsum("ilj...->lij...", dg) + np.einsum("jli...->lij...", dg)
    E -= dg
    gam = 0.5 * _mm(inv, E.reshape((dim, dim * dim) + shape)).reshape(E.shape)
    return det, inv, E, gam


def _christoffel_adjoint(det, inv, E, bar_gam, h: float, dim: int, bar_inv=0.0, bar_det=0.0) -> dict:
    """Pull the adjoints of Gamma (and of the inverse and determinant,
    where a density reads them) back to the metric fields."""
    # Gamma^k_ij = 1/2 g^kl E_lij
    pairs = (dim, dim * dim) + E.shape[3:]
    bar_gam = bar_gam.reshape(pairs)
    inv_t = np.swapaxes(inv, 0, 1)
    bar_inv = bar_inv + 0.5 * _mm(bar_gam, np.swapaxes(E.reshape(pairs), 0, 1))
    bar_E = _mm(inv_t, bar_gam).reshape(E.shape)
    bar_E *= 0.5
    bar_dg = np.einsum("lij...->ilj...", bar_E) + np.einsum("lij...->jli...", bar_E)
    bar_dg -= bar_E
    # d(g^-1) = -g^-1 dg g^-1 and d(det) = det g^-1 (transposed) dg
    bar_g = bar_det * det * inv_t - _mm(inv_t, _mm(bar_inv, inv_t)) + _diff_adjoint(bar_dg, h, dim)
    # a lattice field fills both g_ij and g_ji
    return {
        "g" + c: bar_g[i, j] + bar_g[j, i] if i != j else bar_g[i, i]
        for c, (i, j) in _METRIC_COMPONENTS[dim].items()
    }


def _action_terms_2d(fields: dict[str, np.ndarray], h: float):
    """Christoffel data, Ricci tensor, scalar curvature r and field
    strength F of the discrete reduced action (central differences)."""
    det, inv, E, gam = _christoffel(fields, h, 2)
    dgam = _diff_all(gam, h, 2)
    # R_sm = d_m Gamma^l_ls - d_l Gamma^l_ms + Gamma^l_mr Gamma^r_ls
    # - Gamma^l_lr Gamma^r_ms, indexed [s, m], summed term by term over (l, r)
    ric = 0.0
    for lam in range(2):
        ric = ric + np.swapaxes(dgam[:, lam, lam], 0, 1) - np.swapaxes(dgam[lam, lam], 0, 1)
        for rho in range(2):
            ric = ric + gam[rho, lam][:, None] * gam[lam, :, rho][None]
            ric = ric - gam[lam, lam, rho] * np.swapaxes(gam[rho], 0, 1)
    r = (inv * ric).reshape((4,) + ric.shape[2:]).sum(axis=0)
    da = _diff_all(np.stack([fields["at"], fields["ax"]]), h, 2)
    F = da[0, 1] - da[1, 0]
    return det, inv, E, gam, ric, r, F


def _action_density_2d(fields: dict[str, np.ndarray], h: float) -> np.ndarray:
    """Discrete reduced-action density on a periodic block."""
    det, _, _, _, _, r, F = _action_terms_2d(fields, h)
    return ACTION_COUPLING * (F * r + F ** 3 / (-det))


def _action_gradient_2d(fields: dict[str, np.ndarray], h: float) -> dict:
    """Gradient of the summed 2D action density with respect to every
    field value of a periodic block, by reverse mode."""
    det, inv, E, gam, ric, r, F = _action_terms_2d(fields, h)
    bar_F = ACTION_COUPLING * (r + 3.0 * F ** 2 / (-det))
    bar_r = ACTION_COUPLING * F
    b = bar_r * inv  # the adjoint of ric, [s, m]
    # d_m Gamma^l_ls - d_l Gamma^l_ms: b lands on two diagonal views of bar_dgam
    bar_dgam = np.zeros((2,) + gam.shape)
    np.einsum("mlls...->lsm...", bar_dgam)[...] += b
    np.einsum("llms...->lsm...", bar_dgam)[...] -= b
    # the products, one einsum per Gamma factor
    bar_gam = np.einsum("sm...,rls...->lmr...", b, gam) + np.einsum("sm...,lmr...->rls...", b, gam)
    bar_gam[[0, 1], [0, 1]] -= np.einsum("sm...,rms...->r...", b, gam)
    bar_gam -= np.einsum("sm...,r...->rms...", b, np.einsum("llr...->r...", gam))
    bar_gam += _diff_adjoint(bar_dgam, h, 2)
    out = _christoffel_adjoint(
        det, inv, E, bar_gam, h, 2, bar_inv=bar_r * ric, bar_det=ACTION_COUPLING * F ** 3 / det ** 2
    )
    bar_da = np.zeros((2, 2) + F.shape)
    bar_da[0, 1], bar_da[1, 0] = bar_F, -bar_F
    out["at"], out["ax"] = _diff_adjoint(bar_da, h, 2)
    return out


def _cs_gradient_3d(fields: dict[str, np.ndarray], h: float) -> dict:
    """Gradient of the summed 3D connection density with respect to every
    metric value of a periodic block, by reverse mode.

    With the matrices (A_a)^r_s = Gamma^r_{as} = gam[:, a], the density is
    eps^{abc} (1/2 tr(A_a d_b A_c) + 1/3 tr(A_a A_b A_c)) / 4 pi^2; the cubic
    term is cyclic, so its gradient in A_a is the commutator [A_b, A_c]
    (transposed) for the cyclic successors b, c of a."""
    det, inv, E, gam = _christoffel(fields, h, 3)
    bar_gam = np.zeros_like(gam)
    for al in range(3):
        be, ga_ = (al + 1) % 3, (al + 2) % 3
        A_b, A_c = gam[:, be], gam[:, ga_]
        grad = _mm(A_b, A_c) - _mm(A_c, A_b)
        grad += 0.5 * (_dp(A_c, be - 3, h) - _dp(A_b, ga_ - 3, h))
        bar_gam[:, al] += np.swapaxes(grad, 0, 1)
        # the adjoint of d_b is -d_b
        half = 0.5 * np.swapaxes(gam[:, al], 0, 1)
        bar_gam[:, ga_] -= _dp(half, be - 3, h)
        bar_gam[:, be] += _dp(half, ga_ - 3, h)
    bar_gam *= 1.0 / (4.0 * math.pi ** 2)
    return _christoffel_adjoint(det, inv, E, bar_gam, h, 3)


# Gathered patches go through in batches of at most this many cells (four
# 9^3 patches): at its peak the 3D adjoint holds about eight arrays of 27
# values per cell, 5 MB at this size.
_PATCH_BATCH_CELLS = 3000


def _patch_gradient(fields: dict, sites, h: float, gradient_fn) -> dict:
    """h^dim times the gradient of the discrete action (the summed density)
    with respect to every field's value at each site, as {name: array over
    sites}.

    gradient_fn(block, h) differentiates the action of a periodic block.
    The block is the whole lattice, or the radius-4 patches of the sites,
    each taken as a periodic 9^dim block and stacked on a leading batch
    axis, whichever holds fewer cells.  A site's gradient reads field values
    within twice the density's stencil radius of 2, and 9 >= 2*4 + 1, so
    both blocks give the site the same value."""
    sites = np.asarray(sites, dtype=int)
    n, dim = sites.shape
    shape = fields["gtt"].shape
    scale = h ** dim
    if math.prod(shape) <= n * 9 ** dim:
        grads = gradient_fn(fields, h)
        return {k: grads[k][tuple(sites.T)] * scale for k in fields}
    offsets = np.arange(-4, 5)
    per_batch = max(1, _PATCH_BATCH_CELLS // 9 ** dim)
    out = {k: np.empty(n) for k in fields}
    for lo in range(0, n, per_batch):
        batch = sites[lo:lo + per_batch]
        # index arrays of shape (len(batch), 9, ..., 9), the batch axis first
        at = tuple(
            (batch[:, d].reshape([-1] + [1] * dim) + offsets.reshape([1] + [9 if a == d else 1 for a in range(dim)]))
            % shape[d]
            for d in range(dim)
        )
        grads = gradient_fn({k: v[at] for k, v in fields.items()}, h)
        for k in fields:
            out[k][lo:lo + per_batch] = grads[k][(Ellipsis,) + (4,) * dim] * scale
    return out


def _sample(m: MetricSpec, axes, extra: Mapping[str, ExprAst]) -> dict[str, np.ndarray]:
    """Lattice fields: the metric components ("g" + key, see
    _METRIC_COMPONENTS), then each extra expression under its name,
    evaluated on the mesh of the coordinate axes."""
    mesh = np.meshgrid(*axes, indexing="ij")
    bind = {**dict(zip(m.coords, mesh)), **{k: float(v) for k, v in m.env.items()}}
    g = eval_tensor(m.components, bind)
    fields = {"g" + c: g[i, j] for c, (i, j) in _METRIC_COMPONENTS[m.dim].items()}
    fields.update((name, eval_array(e, bind)) for name, e in extra.items())
    return fields


def lattice_variation_check_2d(
    rd: ReducedData,
    lattice: Lattice2D,
    h: float,
    window: Optional[Window1D] = None,
    tolerance: Optional[float] = None,
    check_id: str = "lattice-eom-2d",
    case: Optional[str] = None,
) -> CheckReport:
    """Variation of the discretized reduced action with respect to the
    field values at lattice sites, against the analytic field-equation
    residuals.  The variation is the exact gradient of the discrete action
    (reverse mode); the tests cross-check it against central differences.

    With a window, the closed-form fields are blended to a flat background
    outside the window support (keeping the lattice periodic) and only core
    sites, where the blend is exactly the identity over the full stencil,
    are compared.
    """
    span = Span()
    taxis, xaxis = lattice.axes(h)
    fields = _sample(rd.g2, (taxis, xaxis), {"at": rd.a[0], "ax": rd.a[1]})
    if window is not None:
        w = window.profile(xaxis)
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
    dens = _action_density_2d(fields, h)
    grads = _patch_gradient(fields, sites, h, _action_gradient_2d)
    names = ("at", "ax", "gtt", "gtx", "gxx")
    resid = np.array([np.abs(grads[name] / h ** 2 - target[name]) for name in names])
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
    offset = np.abs(xaxis - window.center)
    # a column is core if its whole stencil lies on the lattice, in the flat
    # zone; the padding marks the cells off the lattice as not flat
    flat = np.pad(offset <= window.flat_radius, margin)
    whole = sliding_window_view(flat, 2 * margin + 1).all(axis=1)
    return np.flatnonzero(whole & (offset <= radius)).tolist()


def lattice_cotton_variation_check_3d(
    m: MetricSpec,
    lattice: Lattice3D,
    h: float,
    sites: Optional[Sequence[tuple[int, int, int]]] = None,
    tolerance: Optional[float] = None,
    check_id: str = "lattice-cotton-3d",
) -> CheckReport:
    """Variation of the discretized connection functional with respect to
    metric values at lattice sites, against the Cotton tensor density from
    the exact engine.  The variation is the exact gradient of the discrete
    functional (reverse mode); the tests cross-check it against central
    differences."""
    span = Span()
    axes = lattice.axes(h)
    fields = _sample(m, axes, {})
    if sites is None:
        stride = max(1, lattice.n // 4)
        rng = range(0, lattice.n, stride)
        sites = [(a, b, c) for a in rng for b in rng for c in rng][:27]
    pts = np.array([[axes[0][a], axes[1][b], axes[2][c]] for a, b, c in sites])
    data = cotton_grid(m, pts, order=3)
    sqrtg = np.sqrt(np.abs(data["det"]))
    cot = data["cotton"]
    comps = _METRIC_COMPONENTS[3]
    grads = _patch_gradient(fields, sites, h, _cs_gradient_3d)
    resid = np.array([
        np.abs(
            grads["g" + c] / h ** 3
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

