"""Curvature engine: Christoffel, Riemann, Ricci, Cotton, pullbacks.

Every quantity is computed in jet arithmetic over jet-valued coordinates,
so derivatives of curvature (needed for the Cotton tensor, its conservation
law, and Killing prolongation) come out exact: differentiating a jet is an
index shift, not a finite difference.  The jet order of the metric seeds
sets how many derivatives of the output are trustworthy; each public
operation picks the minimal order it needs.

Sign conventions.  Riemann is
``R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
+ Gamma Gamma - Gamma Gamma`` and Ricci contracts the first index with the
*last* lower slot, ``R_{sigma mu} = R^lam_{sigma mu lam}``.  That contraction
(rather than the middle-slot one) is pinned by the convention-calibration
test: the catalog's homogeneous 2D cosmology must come out with r = +C.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .exprlang import (
    ExprAst,
    ExprEvalError,
    Num,
    eval_array,
    eval_jet_bindings,
    parse_expr,
    to_text,
    validate_symbols,
)
from .jets import Jet, jet_apply, jet_constant, jet_var
from .report import CheckReport, make_report

__all__ = [
    "MetricSpec",
    "CurvatureAt",
    "CottonAt",
    "GeometryError",
    "DegenerateMetricError",
    "christoffel_at",
    "curvature_at",
    "curvature_grid",
    "cotton_at",
    "cotton_grid",
    "cotton_identities_check",
    "covariant_hessian_at",
    "pullback_metric_at",
    "flat_metric",
    "load_metric",
    "dump_metric",
    "metric_from_dict",
    "metric_to_dict",
]

_DET_FLOOR = 1e-12


class GeometryError(ValueError):
    pass


class DegenerateMetricError(GeometryError):
    def __init__(self, point, det):
        self.point = tuple(float(v) for v in np.atleast_1d(point))
        super().__init__(f"metric degenerate at {self.point} (det = {det:g})")


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric grid of component expressions over named coordinates.

    ``components[i][j]`` and ``components[j][i]`` are the same AST object;
    missing entries are the literal 0.  ``orientation`` flips the sign of
    the permutation symbol used by orientation-sensitive quantities.
    """

    dim: int
    coords: tuple[str, ...]
    components: tuple[tuple[ExprAst, ...], ...]
    env: Mapping[str, float] = field(default_factory=dict)
    orientation: int = 1

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GeometryError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.coords) != self.dim:
            raise GeometryError("coordinate list does not match dim")
        if set(self.coords) & set(self.env):
            raise GeometryError("parameter names must be disjoint from coordinates")
        if self.orientation not in (1, -1):
            raise GeometryError("orientation must be +1 or -1")
        allowed = set(self.coords) | set(self.env)
        for i in range(self.dim):
            for j in range(self.dim):
                if self.components[i][j] is not self.components[j][i]:
                    raise GeometryError("component grid is not shared-symmetric")
                try:
                    validate_symbols(self.components[i][j], allowed)
                except ExprEvalError as err:
                    raise GeometryError(f"component ({i},{j}): {err}") from err

    @staticmethod
    def from_components(
        coords: Sequence[str],
        entries: Mapping[tuple[int, int] | str, ExprAst | str],
        env: Mapping[str, float] | None = None,
        orientation: int = 1,
    ) -> "MetricSpec":
        dim = len(coords)
        zero = Num(0.0)
        grid: list[list[ExprAst]] = [[zero] * dim for _ in range(dim)]
        for key, expr in entries.items():
            if isinstance(key, str):
                a, b = key.split(",")
                i, j = coords.index(a.strip()), coords.index(b.strip())
            else:
                i, j = key
            ast = parse_expr(expr) if isinstance(expr, str) else expr
            grid[i][j] = ast
            grid[j][i] = ast
        return MetricSpec(
            dim=dim,
            coords=tuple(coords),
            components=tuple(tuple(row) for row in grid),
            env=dict(env or {}),
            orientation=orientation,
        )


def flat_metric(dim: int = 3, coords: Sequence[str] = ("t", "x", "y")) -> MetricSpec:
    """Minkowski diag(1, -1, ...) over the given coordinates."""
    entries = {(0, 0): Num(1.0)}
    for k in range(1, dim):
        entries[(k, k)] = Num(-1.0)
    return MetricSpec.from_components(coords[:dim], entries)


# -- metric file format -------------------------------------------------------

_METRIC_KEYS = {"dim", "coordinates", "parameters", "components", "orientation"}


def metric_from_dict(obj: dict) -> MetricSpec:
    unknown = set(obj) - _METRIC_KEYS
    if unknown:
        raise GeometryError(f"unknown metric file keys: {sorted(unknown)}")
    coords = obj["coordinates"]
    if obj.get("dim", len(coords)) != len(coords):
        raise GeometryError("dim does not match coordinate count")
    return MetricSpec.from_components(
        coords,
        obj.get("components", {}),
        env=obj.get("parameters", {}),
        orientation=obj.get("orientation", 1),
    )


def metric_to_dict(m: MetricSpec) -> dict:
    comps = {}
    for i in range(m.dim):
        for j in range(i, m.dim):
            ast = m.components[i][j]
            if isinstance(ast, Num) and ast.value == 0.0:
                continue
            comps[f"{m.coords[i]},{m.coords[j]}"] = to_text(ast)
    out = {
        "dim": m.dim,
        "coordinates": list(m.coords),
        "parameters": dict(m.env),
        "components": comps,
    }
    if m.orientation != 1:
        out["orientation"] = m.orientation
    return out


def load_metric(path) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_from_dict(json.load(fh))


def dump_metric(m: MetricSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- jet pipeline -------------------------------------------------------------


def coordinate_seeds(
    coords: Sequence[str],
    point: Sequence[Union[float, np.ndarray]],
    env: Mapping[str, float],
    order: int,
) -> dict[str, Union[Jet, float]]:
    nv = len(coords)
    seeds: dict[str, Union[Jet, float]] = {
        name: jet_var(i, np.asarray(point[i], dtype=float), nv, order)
        for i, name in enumerate(coords)
    }
    for k, v in env.items():
        seeds[k] = float(v)
    return seeds


def _expr_jet(expr: ExprAst, seeds) -> Jet:
    """Jet of an expression over coordinate seeds; a constant becomes a
    constant jet broadcast to the seeds' grid shape."""
    ref = next(v for v in seeds.values() if isinstance(v, Jet))
    val = eval_jet_bindings(expr, seeds)
    if isinstance(val, Jet):
        return val
    return jet_constant(np.broadcast_to(val, np.shape(ref.value)), ref.num_vars, ref.order)


def _metric_jets(m: MetricSpec, seeds) -> list[list[Jet]]:
    g: list[list[Optional[Jet]]] = [[None] * m.dim for _ in range(m.dim)]
    for i in range(m.dim):
        for j in range(i, m.dim):
            g[i][j] = g[j][i] = _expr_jet(m.components[i][j], seeds)
    return g  # type: ignore[return-value]


def _det_jet(g: list[list[Jet]], dim: int) -> Jet:
    if dim == 2:
        return g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _inverse_jets(g: list[list[Jet]], dim: int, det: Jet) -> list[list[Jet]]:
    rec = 1.0 / det
    if dim == 2:
        return [
            [g[1][1] * rec, -(g[0][1] * rec)],
            [-(g[1][0] * rec), g[0][0] * rec],
        ]
    cof = [[None] * 3 for _ in range(3)]
    idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for i in range(3):
        for j in range(i, 3):
            # adjugate of a symmetric matrix is symmetric
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = g[r[0]][c[0]] * g[r[1]][c[1]] - g[r[0]][c[1]] * g[r[1]][c[0]]
            sign = -1.0 if (i + j) % 2 else 1.0
            cof[i][j] = cof[j][i] = minor * sign * rec
    return cof  # type: ignore[return-value]


def _check_det(det_value, point, dim) -> None:
    bad = ~(np.abs(np.atleast_1d(det_value)) > _DET_FLOOR)  # a NaN determinant is degenerate too
    if np.any(bad):
        k = int(np.argmax(bad))
        pt = np.atleast_2d(np.asarray(point, dtype=float).reshape(dim, -1).T)[k]
        raise DegenerateMetricError(pt, float(np.atleast_1d(det_value)[k]))


def _christoffel_jets(g, ginv, dim) -> list[list[list[Jet]]]:
    dg = [[[g[i][j].derivative(l) for l in range(dim)] for j in range(dim)] for i in range(dim)]
    gamma = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        for i in range(dim):
            for j in range(i, dim):
                total = None
                for l in range(dim):
                    term = dg[l][j][i] + dg[l][i][j] - dg[i][j][l]
                    contrib = ginv[k][l] * term
                    total = contrib if total is None else total + contrib
                val = total * 0.5
                gamma[k][i][j] = gamma[k][j][i] = val
    return gamma


def _riemann_jets(gamma, dim) -> list[list[list[list[Jet]]]]:
    dgam = [
        [[[gamma[r][i][j].derivative(l) for l in range(dim)] for j in range(dim)] for i in range(dim)]
        for r in range(dim)
    ]
    riem = [[[[None] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for rho in range(dim):
        for sig in range(dim):
            for mu in range(dim):
                for nu in range(mu + 1, dim):
                    term = dgam[rho][nu][sig][mu] - dgam[rho][mu][sig][nu]
                    for lam in range(dim):
                        term = term + gamma[rho][mu][lam] * gamma[lam][nu][sig]
                        term = term - gamma[rho][nu][lam] * gamma[lam][mu][sig]
                    riem[rho][sig][mu][nu] = term
                    riem[rho][sig][nu][mu] = -term
                riem[rho][sig][mu][mu] = gamma[0][0][0] * 0.0
    return riem


def _ricci_lower_jets(riem, dim) -> list[list[Jet]]:
    # contraction with the LAST slot; see module docstring for the calibration
    ric = [[None] * dim for _ in range(dim)]
    for s in range(dim):
        for m in range(dim):
            total = riem[0][s][m][0]
            for lam in range(1, dim):
                total = total + riem[lam][s][m][lam]
            ric[s][m] = total
    return ric


def _mixed(ginv, lower, dim) -> list[list[Jet]]:
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            total = ginv[i][0] * lower[0][j]
            for s in range(1, dim):
                total = total + ginv[i][s] * lower[s][j]
            out[i][j] = total
    return out


def _vals(jets_nested):
    """Extract value arrays from a nested list of jets -> ndarray with tensor
    indices first, grid axis (if batched) last."""
    if isinstance(jets_nested, Jet):
        return np.asarray(jets_nested.coeffs[0])
    return np.array([_vals(x) for x in jets_nested])


def _component(T, idx):
    for k in idx:
        T = T[k]
    return T


def _nested(fn, dim: int, rank: int, idx=()):
    """Nested lists of fn(idx) over every index tuple of the given rank.  A
    module-level function, so no closure cycle keeps fn's tensors alive."""
    if len(idx) == rank:
        return fn(idx)
    return [_nested(fn, dim, rank, idx + (k,)) for k in range(dim)]


class _Pipeline:
    """The jet curvature engine at a chosen jet order.  Every quantity is
    built on first use and kept, so each is computed once per instance."""

    def __init__(self, m: MetricSpec, point, order: int):
        self.m = m
        self.dim = m.dim
        self.point = point
        self.seeds = coordinate_seeds(m.coords, point, m.env, order)
        self.g = _metric_jets(m, self.seeds)
        self._sqrt_abs_det = None

    @cached_property
    def det(self) -> Jet:
        det = _det_jet(self.g, self.dim)
        _check_det(det.coeffs[0], self.point, self.dim)
        return det

    @cached_property
    def ginv(self):
        return _inverse_jets(self.g, self.dim, self.det)

    @cached_property
    def gamma(self):
        return _christoffel_jets(self.g, self.ginv, self.dim)

    @cached_property
    def riemann(self):
        return _riemann_jets(self.gamma, self.dim)

    @cached_property
    def ricci_lower(self):
        return _ricci_lower_jets(self.riemann, self.dim)

    @cached_property
    def ricci_mixed(self):
        return _mixed(self.ginv, self.ricci_lower, self.dim)

    @cached_property
    def ricci_mixed_deriv(self):
        """R^i_{j;a}, indexed [i][j][a]."""
        return self.cov_deriv(self.ricci_mixed, 1, 1)

    def scalar(self):
        dim = self.dim
        total = None
        ric = self.ricci_lower
        for s in range(dim):
            for m_ in range(dim):
                term = self.ginv[s][m_] * ric[s][m_]
                total = term if total is None else total + term
        return total

    def sqrt_abs_det(self) -> Jet:
        if self._sqrt_abs_det is None:
            sign = np.sign(np.asarray(self.det.coeffs[0]))
            self._sqrt_abs_det = jet_apply("sqrt", self.det * sign)
        return self._sqrt_abs_det

    def cov_deriv(self, T, ups: int, downs: int):
        """T^{i...}_{j...;a} for a jet tensor with ``ups`` leading upper and
        ``downs`` trailing lower indices, as nested lists with the
        derivative index last; the jet order drops by one."""
        dim, gam = self.dim, self.gamma

        def deriv_at(idx):
            out = []
            for a in range(dim):
                term = _component(T, idx).derivative(a)
                for l in range(dim):
                    for pos, i in enumerate(idx):
                        rep = _component(T, idx[:pos] + (l,) + idx[pos + 1:])
                        if pos < ups:
                            term = term + gam[i][a][l] * rep
                        else:
                            term = term - gam[l][a][i] * rep
                out.append(term)
            return out

        return _nested(deriv_at, dim, ups + downs)

    def hessian(self, s: Jet) -> tuple[np.ndarray, np.ndarray]:
        """Values of (D_a D_b s, g^{ab} D_a D_b s) for a scalar jet s."""
        dim, gam = self.dim, self.gamma
        ds = [s.derivative(a) for a in range(dim)]
        hess = np.empty((dim, dim) + np.shape(s.value))
        for a in range(dim):
            for b in range(a, dim):
                term = ds[a].derivative(b)
                for l in range(dim):
                    term = term - gam[l][a][b] * ds[l]
                hess[a, b] = hess[b, a] = term.value
        return hess, np.einsum("ab...,ab...->...", _vals(self.ginv), hess)

    def cotton(self) -> list[list[Jet]]:
        if self.dim != 3:
            raise GeometryError("Cotton tensor requires dim = 3")
        eps = _eps3(self.m.orientation)
        dr = self.ricci_mixed_deriv
        # The overall sign makes the tensor the metric variation of the
        # connection functional, delta W = -(1/4 pi^2) int sqrt|g| C^{mn}
        # delta g_{mn}; the lattice variation check pins it.  That is the
        # opposite Ricci sign from the scalar-curvature calibration, which
        # no magnitude-based Cotton property is sensitive to.
        half_inv_sqrt = -0.5 / self.sqrt_abs_det()
        cot = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                total = None
                for (a, b), s in eps[i]:
                    term = dr[j][b][a] * s
                    total = term if total is None else total + term
                for (a, b), s in eps[j]:
                    total = total + dr[i][b][a] * s
                cot[i][j] = cot[j][i] = total * half_inv_sqrt
        return cot


def _eps3(orientation: int):
    """For each first index mu: list of ((alpha, beta), sign) with
    eps^{mu alpha beta} != 0, eps^{012} = +orientation."""
    table = {i: [] for i in range(3)}
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm) * orientation
        table[perm[0]].append(((perm[1], perm[2]), float(sign)))
    return table


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# -- public single-point results ----------------------------------------------


@dataclass
class CurvatureAt:
    point: tuple[float, ...]
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray  # Gamma^k_{ij} indexed [k][i][j]
    riemann: Optional[np.ndarray] = None  # R^rho_{sigma mu nu}
    ricci: Optional[np.ndarray] = None  # mixed R^mu_nu
    scalar: Optional[float] = None
    einstein: Optional[np.ndarray] = None  # mixed G^mu_nu


@dataclass
class CottonAt:
    point: tuple[float, ...]
    c: np.ndarray  # C^{mu nu}, symmetric


def christoffel_at(m: MetricSpec, p: Sequence[float]) -> CurvatureAt:
    """Connection coefficients, carried at jet order 2 so callers can take
    two more derivatives of Gamma downstream."""
    pipe = _Pipeline(m, tuple(float(v) for v in p), order=3)
    return CurvatureAt(
        point=tuple(float(v) for v in p),
        g=_vals(pipe.g),
        g_inv=_vals(pipe.ginv),
        gamma=_vals(pipe.gamma),
    )


def curvature_at(m: MetricSpec, p: Sequence[float]) -> CurvatureAt:
    pipe = _Pipeline(m, tuple(float(v) for v in p), order=2)
    ric = _vals(pipe.ricci_mixed)
    scal = float(np.asarray(pipe.scalar().coeffs[0]))
    dim = m.dim
    einstein = ric - 0.5 * scal * np.eye(dim)
    return CurvatureAt(
        point=tuple(float(v) for v in p),
        g=_vals(pipe.g),
        g_inv=_vals(pipe.ginv),
        gamma=_vals(pipe.gamma),
        riemann=_vals(pipe.riemann),
        ricci=ric,
        scalar=scal,
        einstein=einstein,
    )


def curvature_grid(m: MetricSpec, pts: np.ndarray, order: int = 2) -> dict:
    """Batched curvature values over pts of shape (npts, dim).

    Returns arrays with tensor indices leading and the grid axis last.
    """
    pts = np.asarray(pts, dtype=float)
    pipe = _Pipeline(m, tuple(pts[:, i] for i in range(m.dim)), order=order)
    ric = _vals(pipe.ricci_mixed)
    scal = np.asarray(pipe.scalar().coeffs[0])
    dim = m.dim
    einstein = ric - 0.5 * scal * np.eye(dim).reshape(dim, dim, 1)
    return {
        "g": _vals(pipe.g),
        "g_inv": _vals(pipe.ginv),
        "gamma": _vals(pipe.gamma),
        "riemann": _vals(pipe.riemann),
        "ricci": ric,
        "scalar": scal,
        "einstein": einstein,
    }


def metric_values_grid(m: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """Component values over pts, shape (dim, dim, npts)."""
    pts = np.asarray(pts, dtype=float)
    bind = {name: pts[:, i] for i, name in enumerate(m.coords)}
    bind.update({k: float(v) for k, v in m.env.items()})
    out = np.empty((m.dim, m.dim, len(pts)))
    for i in range(m.dim):
        for j in range(i, m.dim):
            out[i, j] = out[j, i] = eval_array(m.components[i][j], bind)
    return out


def cotton_at(m: MetricSpec, p: Sequence[float]) -> CottonAt:
    if m.dim != 3:
        raise GeometryError("Cotton tensor requires a 3-dimensional metric")
    pipe = _Pipeline(m, tuple(float(v) for v in p), order=3)
    return CottonAt(point=tuple(float(v) for v in p), c=_vals(pipe.cotton()))


def cotton_grid(m: MetricSpec, pts: np.ndarray, order: int = 3) -> dict:
    """Batched Cotton values; with order 4 also exact covariant divergence."""
    if m.dim != 3:
        raise GeometryError("Cotton tensor requires a 3-dimensional metric")
    pts = np.asarray(pts, dtype=float)
    pipe = _Pipeline(m, tuple(pts[:, i] for i in range(3)), order=order)
    cot = pipe.cotton()
    out = {
        "cotton": _vals(cot),
        "g": _vals(pipe.g),
        "ricci": _vals(pipe.ricci_mixed),
        "scale": 1.0 + _cotton_term_scale(pipe),
    }
    if order >= 4:
        gam = pipe.gamma
        div = []
        for j in range(3):
            total = None
            for a in range(3):
                term = cot[a][j].derivative(a)
                for l in range(3):
                    term = term + gam[a][a][l] * cot[l][j]
                    term = term + gam[j][a][l] * cot[a][l]
                total = term if total is None else total + term
            div.append(np.asarray(total.coeffs[0]))
        out["divergence"] = np.array(div)
    return out


def _cotton_term_scale(pipe: _Pipeline) -> np.ndarray:
    """Magnitude of the individual terms entering the Cotton assembly; the
    meaningful scale for a residual that is a cancellation of those terms."""
    inv_sqrt = np.asarray((0.5 / pipe.sqrt_abs_det()).coeffs[0])
    mag = np.max(np.abs(_vals(pipe.ricci_mixed_deriv)), axis=(0, 1, 2))
    return np.abs(inv_sqrt) * mag


def cotton_identities_check(
    m: MetricSpec,
    grid: np.ndarray,
    tolerance: float = 1e-8,
    check_id: str = "cotton-identities",
) -> CheckReport:
    """Max over the grid of the symmetry, trace, and covariant-conservation
    residuals of the Cotton tensor, each normalized by the assembly scale."""
    t0 = time.perf_counter()
    grid = np.asarray(grid, dtype=float)
    data = cotton_grid(m, grid, order=4)
    cot, g, scale = data["cotton"], data["g"], data["scale"]
    sym_res = np.max(np.abs(cot - np.swapaxes(cot, 0, 1)), axis=(0, 1)) / scale
    trace = np.abs(np.einsum("ij...,ij...->...", g, cot)) / scale
    cons = np.max(np.abs(data["divergence"]), axis=0) / scale
    per_point = np.maximum(np.maximum(sym_res, trace), cons)
    worst = int(np.argmax(per_point))
    return make_report(
        check_id=check_id,
        max_residual=float(per_point[worst]),
        tolerance=tolerance,
        grid=f"{len(grid)} points",
        params=dict(m.env),
        worst_point=list(map(float, grid[worst])),
        wall_time=time.perf_counter() - t0,
        details={
            "symmetry": float(np.max(sym_res)),
            "trace": float(np.max(trace)),
            "conservation": float(np.max(cons)),
        },
    )


def covariant_hessian_at(
    m: MetricSpec, s: ExprAst, p: Sequence[float]
) -> tuple[np.ndarray, float]:
    """(D_a D_b s, g^{ab} D_a D_b s) for a scalar field expression."""
    pipe = _Pipeline(m, tuple(float(v) for v in p), order=2)
    hess, box = pipe.hessian(_expr_jet(s, pipe.seeds))
    return hess, float(box)


def pullback_metric_at(
    map_components: Sequence[ExprAst],
    source_coords: Sequence[str],
    target: MetricSpec,
    p: Sequence[float],
    env: Mapping[str, float] | None = None,
) -> np.ndarray:
    """(phi* g)_{ab} at p: Jacobian of the map times target components at
    the image point, all through jet-valued evaluation."""
    if len(map_components) != target.dim:
        raise GeometryError("map component count does not match target dim")
    env = dict(env or {})
    nsrc = len(source_coords)
    seeds = coordinate_seeds(source_coords, [float(v) for v in p], env, order=1)
    images = [_expr_jet(comp, seeds) for comp in map_components]
    jac = np.array(
        [[float(np.asarray(images[mu].derivative(a).coeffs[0])) for a in range(nsrc)] for mu in range(target.dim)]
    )
    if nsrc == target.dim and abs(np.linalg.det(jac)) < _DET_FLOOR:
        raise GeometryError(f"singular Jacobian at {tuple(p)}")
    image_point = {name: float(np.asarray(images[k].coeffs[0])) for k, name in enumerate(target.coords)}
    bindings = dict(image_point)
    bindings.update({k: float(v) for k, v in target.env.items()})
    g_img = np.array(
        [[eval_array(target.components[i][j], bindings) for j in range(target.dim)] for i in range(target.dim)],
        dtype=float,
    )
    return np.einsum("ma,nb,mn->ab", jac, jac, g_img)
