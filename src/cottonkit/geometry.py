"""Curvature engine: Christoffel, Riemann, Ricci, Cotton, pullbacks.

Every quantity is a tensor jet over jet-valued coordinates, so derivatives
of curvature (needed for the Cotton tensor, its conservation law, and
Killing prolongation) come out exact: differentiating a jet is an index
shift, not a finite difference.  The jets run over only the coordinates
that the metric and the caller's expressions read, while tensor indices
span all coordinates; a derivative by another coordinate is an exact zero.
This module writes the index algebra as einsum specs that the ``jets``
kernels run.  The jet order of the metric seeds sets how many derivatives
of the output are trustworthy; each public operation picks the minimal
order it needs.

Grids run once per distinct point, in tiles.  ``curvature_grid`` and
``cotton_grid``, and so every grid check, build the pipeline only on the
distinct rows of the coordinates it seeds (compared as bit patterns, so
-0.0 and 0.0 stay apart), in first-occurrence order, and gather each
order-0 value back to the grid: a catalog metric reads one coordinate, so
its 4096-point standard grid holds 16 distinct points.  The distinct rows
are repeated cyclically up to ``jets._GATHER_MAX_ELEMENTS`` + 1 = 193
points, and grids of 193 points or fewer are not deduplicated at all.
The rows then run in tiles: one pipeline per tile of near-equal size whose
tensor jets fit ``_TILE_BYTES``; several tiles write their order-0 values
into arrays allocated once and keep no jets, so memory stops growing with
the grid (loop tiling: Lam, Rothberg and Wolf, "The cache performance and
optimizations of blocked algorithms", ASPLOS 1991).  A tile holds more
than ``jets._GATHER_MAX_ELEMENTS`` points, so each product takes the path
it takes on the whole grid and every value equals one pass bit for bit.

Sign conventions.  Riemann is
``R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
+ Gamma Gamma - Gamma Gamma`` and Ricci contracts the first index with the
*last* lower slot, ``R_{sigma mu} = R^lam_{sigma mu lam}``.  That contraction
(rather than the middle-slot one) is pinned by the convention-calibration
test: the catalog's homogeneous 2D cosmology must come out with r = +C.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .exprlang import (
    _NODES,
    ExprAst,
    ExprEvalError,
    Num,
    _expr_jet,
    coordinate_seeds,
    eval_tensor,
    free_symbols,
    parse_expr,
    to_text,
    validate_symbols,
)
from .jets import (
    _GATHER_MAX_ELEMENTS,
    MAX_ORDER,
    Jet,
    JetSpace,
    column_products,
    jet_apply,
    partials,
    tensor_mul,
)
from .report import CheckReport, Span

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
    "cotton_vanishing_check",
    "covariant_hessian_at",
    "pullback_metric_at",
    "pullback_metric_grid",
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

    @cached_property
    def reads(self) -> frozenset[str]:
        """The coordinates that the components read."""
        used = set().union(*(free_symbols(e) for row in self.components for e in row))
        return frozenset(self.coords) & used

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
            ast = expr if isinstance(expr, _NODES) else parse_expr(expr)
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


def _check_det(det_value, g_values, point, dim) -> None:
    # the floor scales with the components, as det(lam g) = lam^dim det(g);
    # a NaN determinant or component is degenerate too
    floor = _DET_FLOOR * np.max(np.abs(g_values), axis=(0, 1)) ** dim
    bad = np.atleast_1d(~(np.abs(det_value) > floor))
    if np.any(bad):
        k = int(np.argmax(bad))
        pt = np.atleast_2d(np.asarray(point, dtype=float).reshape(dim, -1).T)[k]
        raise DegenerateMetricError(pt, float(np.atleast_1d(det_value)[k]))


def _cofactor_layout(dim: int) -> tuple:
    """The upper triangle (i, j) of a symmetric dim x dim matrix, row by row,
    its cofactor signs and the (rows, columns) factors of its minors: g[r0, c0]
    in 2D, both products of g[r0, c0] g[r1, c1] - g[r0, c1] g[r1, c0] in 3D."""
    i, j = np.triu_indices(dim)
    k = np.arange(dim - 1)
    r, c = k + (k >= i[:, None]), k + (k >= j[:, None])  # without row i and column j
    if dim == 2:
        factors = [(r[:, 0], c[:, 0])]
    else:
        factors = [(np.r_[r[:, 0], r[:, 0]], np.r_[c[:, 0], c[:, 1]]), (np.r_[r[:, 1], r[:, 1]], np.r_[c[:, 1], c[:, 0]])]
    return i, j, np.where((i + j) % 2, -1.0, 1.0), factors


_COFACTORS = {dim: _cofactor_layout(dim) for dim in (2, 3)}


class _Pipeline:
    """The jet curvature engine on a metric's tensor jet g, (ncoeff, dim,
    dim, *grid), at the jet order of g.  The jets run over the coordinates
    ``axes`` (all of them by default), in a len(axes)-variable layout, while
    every tensor index spans all dim coordinates; ``grad`` gives a
    derivative by an unseeded coordinate as an exact zero.  Every
    quantity from g on is a tensor jet, its determinant a scalar jet over the
    same layout, det and g^-1 one order below g (the order of dg, the most
    any consumer reads).  Each is built on first use and kept.
    ``orientation`` signs the Cotton tensor's permutation symbol; a
    degenerate metric error names ``point``."""

    def __init__(self, g: np.ndarray, orientation: int, point, axes: Optional[Sequence[int]] = None):
        self.g = g
        self.dim = g.shape[1]
        self.axes = tuple(range(self.dim) if axes is None else axes)
        self.nv = len(self.axes)
        self.orientation = orientation
        self.point = point
        order = JetSpace.for_length(len(g), self.nv).order
        self._g_low = g[: JetSpace.get(self.nv, max(order - 1, 0)).ncoeff]
        self._sqrt_abs_det: dict[int, Jet] = {}

    def jet(self, coeffs: np.ndarray) -> Jet:
        """A scalar jet in the pipeline's layout."""
        return Jet(JetSpace.for_length(len(coeffs), self.nv), coeffs)

    def grad(self, T: np.ndarray) -> np.ndarray:
        """Partials of a tensor (or scalar) jet, one order lower:
        ``out[c, l, ...]`` is coefficient c of d_l T for every coordinate l."""
        d = partials(T, self.nv)
        if self.nv == self.dim:
            return d
        out = np.zeros(d.shape[:1] + (self.dim,) + d.shape[2:])
        out[:, self.axes] = d
        return out

    @cached_property
    def _minors(self) -> np.ndarray:
        """Minors of g at the upper triangle, one order below g, stacked on
        axis 1 (see ``_cofactor_layout``); only det and ginv use them."""
        factors = _COFACTORS[self.dim][3]
        if self.dim == 2:
            return self._g_low[(slice(None),) + factors[0]]
        prod = column_products(self._g_low, factors[0], self._g_low, factors[1], self.nv)  # both products of each minor
        half = prod.shape[1] // 2
        return prod[:, :half] - prod[:, half:]

    @cached_property
    def det(self) -> Jet:
        """Expansion along the first row: g_00 M_00 - g_01 M_01 (+ g_02 M_02)."""
        first = np.arange(self.dim)
        terms = column_products(self._g_low, (np.zeros_like(first), first), self._minors, (first,), self.nv)
        det = terms[:, 0] - terms[:, 1]
        if self.dim == 3:
            det = det + terms[:, 2]
        _check_det(det[0], self.g[0], self.point, self.dim)
        return self.jet(det)

    @cached_property
    def ginv(self) -> np.ndarray:
        """Each cofactor (minor times sign) times 1/det, a truncated product."""
        i, j, sign, _ = _COFACTORS[self.dim]
        n = np.arange(len(i))
        signed = self._minors * sign.reshape((-1,) + (1,) * (self.g.ndim - 3))
        cof = column_products(signed, (n,), (1.0 / self.det).coeffs[:, None], (np.zeros_like(n),), self.nv)
        del self._minors
        out = np.empty(cof.shape[:1] + self.g.shape[1:])
        out[:, i, j] = out[:, j, i] = cof
        return out

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma^k_{ij}, indexed [c, k, i, j]."""
        dg = self.grad(self.g)  # [c, l, i, j] = d_l g_ij
        lower = np.einsum("cjli...->clij...", dg) + np.einsum("cilj...->clij...", dg)
        lower -= dg
        lower *= 0.5
        del dg  # not held through the product: on grids it is the largest temporary
        return tensor_mul(self.ginv, lower, "kl...,lij...->kij...", self.nv)

    @cached_property
    def riemann(self) -> np.ndarray:
        """R^r_{smn}, indexed [c, r, s, m, n]: the antisymmetrization in (m, n)
        of d_m Gamma^r_{ns} + Gamma^r_{ml} Gamma^l_{ns}."""
        gam = self.gamma
        # [c, r, s, m, n] = d_m Gamma^r_{ns}, a view of the partials in place
        half = np.einsum("cmrns...->crsmn...", self.grad(gam))
        half += tensor_mul(gam[: len(half)], gam, "rml...,lns...->rsmn...", self.nv)
        return half - np.swapaxes(half, 3, 4)

    @cached_property
    def ricci_lower(self) -> np.ndarray:
        """R_{sm} = R^l_{sml}, the contraction with the LAST slot (see the
        module docstring for the calibration), taken term by term in the
        Riemann formula so the Cotton path never holds the rank-4 tensor."""
        gam = self.gamma
        # d_m Gamma^l_{ls} - d_l Gamma^l_{ms} from partials of a trace and of
        # slices: on grids the full gradient of Gamma sets the peak memory
        ric = np.einsum("cms...->csm...", self.grad(np.einsum("clls...->cs...", gam)))
        for v, l in enumerate(self.axes):  # only the partial d_l of slice l, zero unless l is seeded
            ric -= partials(gam[:, l], self.nv, v)
        ric += tensor_mul(gam[: len(ric)], gam, "lmk...,kls...->sm...", self.nv)
        ric -= tensor_mul(gam[: len(ric)], gam, "llk...,kms...->sm...", self.nv)
        return ric

    @cached_property
    def ricci_mixed(self) -> np.ndarray:
        return tensor_mul(self.ginv, self.ricci_lower, "is...,sj...->ij...", self.nv)

    @cached_property
    def ricci_mixed_deriv(self) -> np.ndarray:
        """R^i_{j;a}, indexed [c, i, j, a]."""
        return self.cov_deriv(self.ricci_mixed, 1, 1)

    def scalar(self) -> Jet:
        return self.jet(tensor_mul(self.ginv, self.ricci_lower, "sm...,sm...->...", self.nv))

    def sqrt_abs_det(self, order: Optional[int] = None) -> Jet:
        """sqrt|det g| as a jet of the given order (default: det's own, one
        below the pipeline's), built from the truncated determinant and kept
        per order."""
        det = self.det if order is None else self.det.truncated(order)
        if det.order not in self._sqrt_abs_det:
            sign = np.sign(np.asarray(det.coeffs[0]))
            self._sqrt_abs_det[det.order] = jet_apply("sqrt", det * sign)
        return self._sqrt_abs_det[det.order]

    def cov_deriv(self, T: np.ndarray, ups: int, downs: int) -> np.ndarray:
        """T^{i...}_{j...;a} for a tensor jet with ``ups`` leading upper and
        ``downs`` trailing lower indices, with the derivative index last; the
        jet order drops by one."""
        idx = "ijkmnopq"[: ups + downs]
        out = np.moveaxis(self.grad(T), 1, len(idx) + 1)
        gam = self.gamma[: len(out)]
        for pos, i in enumerate(idx):
            rep = idx.replace(i, "l")
            if pos < ups:
                out += tensor_mul(gam, T, f"{i}al...,{rep}...->{idx}a...", self.nv)
            else:
                out -= tensor_mul(gam, T, f"la{i}...,{rep}...->{idx}a...", self.nv)
        return out

    def hessian(self, s: Jet) -> tuple[np.ndarray, np.ndarray]:
        """Values of (D_a D_b s, g^{ab} D_a D_b s) for a scalar jet s."""
        ds = self.grad(s.coeffs)
        hess = self.grad(ds)[0] - np.einsum("lab...,l...->ab...", self.gamma[0], ds[0])
        return hess, np.einsum("ab...,ab...->...", self.ginv[0], hess)

    def cotton(self) -> np.ndarray:
        """C^{ij}, indexed [c, i, j]."""
        if self.dim != 3:
            raise GeometryError("Cotton tensor requires dim = 3")
        # eps^{iab} D_a R^j_b, from R^j_{b;a} indexed [c, j, b, a]
        curl = np.einsum("iab,cjba...->cij...", _eps3(self.orientation), self.ricci_mixed_deriv)
        # The overall sign makes the tensor the metric variation of the
        # connection functional, delta W = -(1/4 pi^2) int sqrt|g| C^{mn}
        # delta g_{mn}; the lattice variation check pins it.  That is the
        # opposite Ricci sign from the scalar-curvature calibration, which
        # no magnitude-based Cotton property is sensitive to.
        half_inv_sqrt = -0.5 / self.sqrt_abs_det(JetSpace.for_length(len(curl), self.nv).order)
        return tensor_mul(half_inv_sqrt.coeffs, curl + np.swapaxes(curl, 1, 2), "...,ij...->ij...", self.nv)


def _seeded_axes(m: MetricSpec, exprs: Sequence[ExprAst] = ()) -> list[int]:
    """The coordinates seeded as jet variables: those that the components or
    ``exprs`` read, the first coordinate when none is read."""
    read = m.reads.union(*map(free_symbols, exprs))
    return [a for a, c in enumerate(m.coords) if c in read] or [0]


def _metric_pipeline(m: MetricSpec, point, order: int, exprs: Sequence[ExprAst] = ()) -> tuple[_Pipeline, dict]:
    """The pipeline of a MetricSpec at a point (a float or a grid array per
    coordinate) and jet order, and the bindings its tensor jet was walked on.
    Only the coordinates that the components or ``exprs`` read are seeded
    as jet variables, the first coordinate for a constant metric; the others
    are bound as plain values."""
    if len(point) != m.dim:
        raise GeometryError(f"need one point value per coordinate, got {len(point)} for {list(m.coords)}")
    axes = _seeded_axes(m, exprs)
    seeds = coordinate_seeds([m.coords[a] for a in axes], [point[a] for a in axes], m.env, order)
    pipe = _Pipeline(eval_tensor(m.components, seeds), m.orientation, point, axes)
    return pipe, {**dict(zip(m.coords, point)), **seeds}


# The tensor jets of one grid tile fit this many bytes, at ncoeff * dim^3
# doubles a point (7,560 B at order 4 in 3 variables).  Order-4
# cotton_identities_check on a random smooth metric at 4096 points, peak RSS
# in MB (36 MB interpreter) / median ms over 15 interleaved runs,
# single-thread BLAS on a 2-vCPU Xeon with numpy 2.4, by budget in MiB: 41 /
# 397 at 1 (21 tiles at the floor), 42 / 339 at 2, 47 / 269 at 4, 57 / 237
# at 8 (4 x 1024 points), 70 / 241 at 16 and 99 / 254 at 32 (one tile).  At
# 27,000 points the peak is 62 MB, 457 MB in one tile.
_TILE_BYTES = 8 << 20


def _tile_edges(npts: int, nv: int, order: int, dim: int) -> list[int]:
    """Edges of near-equal tiles of npts points whose tensor jets, in the
    nv-variable layout of the order, fit ``_TILE_BYTES``; but a tile never
    holds ``_GATHER_MAX_ELEMENTS`` points or fewer, so each product takes
    the gather or shift path it takes on the whole grid."""
    per_tile = max(1, _TILE_BYTES // (JetSpace.get(nv, order).ncoeff * dim**3 * 8))
    ntiles = max(1, min(-(-npts // per_tile), npts // (_GATHER_MAX_ELEMENTS + 1)))
    return [npts * k // ntiles for k in range(ntiles + 1)]


def _distinct_rows(pts: np.ndarray, axes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the rows of pts[:, axes], compared as int64 bit
    patterns: ``first`` indexes the first occurrence of each distinct row,
    in order of occurrence, and ``pts[first][inverse]`` equals pts at axes."""
    keys = np.ascontiguousarray(pts[:, axes]).view(np.int64)
    order = np.lexsort(keys.T)  # equal rows sort into runs; np.unique(axis=0) is several times slower
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.repeat(rank, np.diff(np.r_[starts, len(keys)]))
    return first[by_first], inverse


def _grid_values(m: MetricSpec, pts, order: int, values: Callable[[_Pipeline], dict]) -> dict:
    """``values`` of the pipeline over pts of shape (npts, dim), each array
    with the grid axis last.

    A grid of more than ``_GATHER_MAX_ELEMENTS`` + 1 = 193 points with
    repeated rows of the seeded coordinates (``_seeded_axes``, compared as
    bit patterns) runs on its distinct rows alone, in first-occurrence order
    so a degenerate point is named as on the whole grid, repeated cyclically
    up to 193 points so each product takes the shift path it takes on the
    whole grid; each value is gathered back to the grid.  The rows run one
    pipeline per tile (see ``_tile_edges``).  One tile's values are returned
    as they are; several tiles' are written into arrays allocated once, so
    no tile's jets outlive it."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != m.dim:
        raise GeometryError(f"grid points must be an array of shape (npts, {m.dim}), got shape {pts.shape}")
    floor = _GATHER_MAX_ELEMENTS + 1
    if len(pts) > floor:
        first, inverse = _distinct_rows(pts, _seeded_axes(m))
        if len(first) < len(pts):
            rows = first[np.arange(max(len(first), floor)) % len(first)]
            return {k: v[..., inverse] for k, v in _tiled_values(m, pts[rows], order, values).items()}
    return _tiled_values(m, pts, order, values)


def _tiled_values(m: MetricSpec, pts: np.ndarray, order: int, values: Callable[[_Pipeline], dict]) -> dict:
    """``values`` over pts, one pipeline per tile (see ``_grid_values``)."""
    npts = len(pts)
    edges = _tile_edges(npts, max(1, len(m.reads)), order, m.dim)
    out: dict = {}
    for lo, hi in zip(edges, edges[1:]):
        tile = values(_metric_pipeline(m, tuple(pts[lo:hi].T), order)[0])
        if len(edges) == 2:
            return tile
        for key, v in tile.items():
            if key not in out:
                out[key] = np.empty(np.shape(v)[:-1] + (npts,))
            out[key][..., lo:hi] = v
        del tile, v  # its order-0 views hold the tile's jets
    return out


def _eps3(orientation: int) -> np.ndarray:
    """Permutation symbol eps^{abc} with eps^{012} = +orientation."""
    a, b, c = np.indices((3, 3, 3))
    return (a - b) * (b - c) * (c - a) / 2.0 * orientation


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
    p = tuple(float(v) for v in p)
    pipe = _metric_pipeline(m, p, 3)[0]
    return CurvatureAt(point=p, g=pipe.g[0], g_inv=pipe.ginv[0], gamma=pipe.gamma[0])


def curvature_at(m: MetricSpec, p: Sequence[float]) -> CurvatureAt:
    p = tuple(float(v) for v in p)
    out = _curvature_values(_metric_pipeline(m, p, 2)[0])
    out["scalar"] = float(out["scalar"])
    return CurvatureAt(point=p, **out)


def curvature_grid(m: MetricSpec, pts: np.ndarray, order: int = 2) -> dict:
    """Batched curvature values over pts of shape (npts, dim), at jet order
    2 to 4.

    Returns arrays with tensor indices leading and the grid axis last.
    """
    if not 2 <= order <= MAX_ORDER:
        raise GeometryError(f"curvature_grid order must be in 2..{MAX_ORDER}, got {order!r}")
    return _grid_values(m, pts, order, _curvature_values)


def _curvature_values(pipe: _Pipeline) -> dict:
    ric = pipe.ricci_mixed[0]
    scal = pipe.scalar().value
    return {
        "g": pipe.g[0],
        "g_inv": pipe.ginv[0],
        "gamma": pipe.gamma[0],
        "riemann": pipe.riemann[0],
        "ricci": ric,
        "scalar": scal,
        "einstein": ric - 0.5 * scal * np.eye(pipe.dim).reshape(ric.shape[:2] + (1,) * np.ndim(scal)),
    }


def metric_values_grid(m: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """Component values over pts, shape (dim, dim, npts)."""
    pts = np.asarray(pts, dtype=float)
    return eval_tensor(m.components, {**dict(zip(m.coords, pts.T)), **{k: float(v) for k, v in m.env.items()}})


def cotton_at(m: MetricSpec, p: Sequence[float]) -> CottonAt:
    if m.dim != 3:
        raise GeometryError("Cotton tensor requires a 3-dimensional metric")
    pipe = _metric_pipeline(m, tuple(float(v) for v in p), 3)[0]
    return CottonAt(point=tuple(float(v) for v in p), c=pipe.cotton()[0])


def cotton_grid(m: MetricSpec, pts: np.ndarray, order: int = 3) -> dict:
    """Batched Cotton values at jet order 3 or 4; with order 4 also the
    exact covariant divergence."""
    if m.dim != 3:
        raise GeometryError("Cotton tensor requires a 3-dimensional metric")
    if not 3 <= order <= MAX_ORDER:
        raise GeometryError(f"cotton_grid order must be in 3..{MAX_ORDER}, got {order!r}")
    return _grid_values(m, pts, order, partial(_cotton_values, divergence=order >= 4))


def _cotton_values(pipe: _Pipeline, divergence: bool) -> dict:
    cot = pipe.cotton()
    # the magnitude of the terms that the Cotton assembly cancels: the
    # meaningful scale for a residual of that cancellation
    inv_sqrt = 0.5 / pipe.sqrt_abs_det(0).value
    out = {
        "cotton": cot[0],
        "g": pipe.g[0],
        "det": pipe.det.value,
        "ricci": pipe.ricci_mixed[0],
        "scale": 1.0 + np.abs(inv_sqrt) * np.max(np.abs(pipe.ricci_mixed_deriv[0]), axis=(0, 1, 2)),
    }
    if divergence:
        # D_a C^{aj}, the trace of the order-0 covariant derivative
        out["divergence"] = np.einsum("aja...->j...", pipe.cov_deriv(cot, 2, 0)[0])
    return out


def _require_points(grid: Sequence, check_id: str) -> None:
    """Fail closed on an empty grid: a check with no points has no residual."""
    if not len(grid):
        raise GeometryError(f"{check_id}: the grid has no points, so there is no residual to report")


def cotton_vanishing_check(
    m: MetricSpec, grid: np.ndarray, tolerance: float, case: Optional[str] = None
) -> CheckReport:
    """Max over the grid of |C_ij| normalized by the assembly scale."""
    span = Span()
    grid = np.asarray(grid, dtype=float)
    data = cotton_grid(m, grid)
    _require_points(grid, "cotton")
    resid = np.max(np.abs(data["cotton"]), axis=(0, 1)) / data["scale"]
    return span.report("cotton", resid, tolerance, grid, case=case, params=dict(m.env))


def cotton_identities_check(
    m: MetricSpec,
    grid: np.ndarray,
    tolerance: float = 1e-8,
    check_id: str = "cotton-identities",
) -> CheckReport:
    """Max over the grid of the symmetry, trace, and covariant-conservation
    residuals of the Cotton tensor, each normalized by the assembly scale."""
    span = Span()
    grid = np.asarray(grid, dtype=float)
    data = cotton_grid(m, grid, order=4)
    _require_points(grid, check_id)
    cot, g, scale = data["cotton"], data["g"], data["scale"]
    sym_res = np.max(np.abs(cot - np.swapaxes(cot, 0, 1)), axis=(0, 1)) / scale
    trace = np.abs(np.einsum("ij...,ij...->...", g, cot)) / scale
    cons = np.max(np.abs(data["divergence"]), axis=0) / scale
    return span.report(
        check_id,
        np.maximum(np.maximum(sym_res, trace), cons),
        tolerance,
        grid,
        params=dict(m.env),
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
    pipe, seeds = _metric_pipeline(m, tuple(float(v) for v in p), 2, (s,))
    hess, box = pipe.hessian(_expr_jet(s, seeds))
    return hess, float(box)


def pullback_metric_at(
    map_components: Sequence[ExprAst],
    source_coords: Sequence[str],
    target: MetricSpec,
    p: Sequence[float],
    env: Mapping[str, float] | None = None,
) -> np.ndarray:
    """(phi* g)_{ab} at one point p: the one-point case of
    ``pullback_metric_grid``."""
    pts = np.asarray(p, dtype=float).reshape(1, -1)
    return pullback_metric_grid(map_components, source_coords, target, pts, env)[..., 0]


def pullback_metric_grid(
    map_components: Sequence[ExprAst],
    source_coords: Sequence[str],
    target: MetricSpec,
    pts: np.ndarray,
    env: Mapping[str, float] | None = None,
) -> np.ndarray:
    """(phi* g)_{ab} over pts of shape (npts, nsrc), shape (nsrc, nsrc, npts):
    Jacobian of the map times target components at the image points, all
    through one jet-valued evaluation."""
    if len(map_components) != target.dim:
        raise GeometryError("map component count does not match target dim")
    pts = np.asarray(pts, dtype=float)
    nsrc = len(source_coords)
    seeds = coordinate_seeds(source_coords, tuple(pts[:, a] for a in range(nsrc)), dict(env or {}), order=1)
    images = eval_tensor(map_components, seeds)
    # jac[mu, a, k] = d_a phi^mu at point k
    jac = np.swapaxes(partials(images, nsrc)[0], 0, 1)
    # a non-finite Jacobian is rejected before det, which would only warn
    bad = ~np.all(np.isfinite(jac), axis=(0, 1))
    if nsrc == target.dim:
        det = np.linalg.det(np.moveaxis(np.where(bad, 0.0, jac), -1, 0))
        bad |= ~(np.abs(det) > _DET_FLOOR)
    if np.any(bad):
        raise GeometryError(f"singular Jacobian at {tuple(float(v) for v in pts[int(np.argmax(bad))])}")
    g_img = metric_values_grid(target, images[0].T)
    return np.einsum("ma...,nb...,mn...->ab...", jac, jac, g_img)
