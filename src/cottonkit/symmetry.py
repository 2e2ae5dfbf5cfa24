"""Killing-vector machinery: residuals, brackets, algebra dimension.

The dimension estimator uses the classical prolongation trick: a Killing
field is determined by its value and the antisymmetric part of its first
covariant derivative at one point, so candidate initial data lives in a
dim*(dim+1)/2-dimensional space.  Requiring the Lie derivative of the
Riemann tensor (and, at depth 2, of its first covariant derivative) to
vanish imposes linear constraints on that data; the estimate is the
dimension of the constraint kernel, with rank read off a singular-value
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exprlang import ExprAst, coordinate_seeds, eval_tensor, free_symbols, parse_expr, to_text
from .geometry import GeometryError, MetricSpec, _metric_pipeline
from .jets import partials
from .report import CheckReport, Span, _argworst

__all__ = [
    "VectorFieldSpec",
    "killing_residual",
    "lie_bracket_at",
    "killing_dimension_estimate",
    "killing_dimension",
    "independence_rank",
    "closure_residual",
]

_RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class VectorFieldSpec:
    """Contravariant vector field with one component expression per coordinate."""

    components: tuple[ExprAst, ...]

    @staticmethod
    def parse(components: Sequence[str]) -> "VectorFieldSpec":
        return VectorFieldSpec(tuple(parse_expr(c) for c in components))

    def texts(self) -> list[str]:
        return [to_text(c) for c in self.components]


def killing_residual(
    m: MetricSpec,
    xi: VectorFieldSpec,
    grid: np.ndarray,
    tolerance: float = 1e-9,
    check_id: str = "killing",
    case: Optional[str] = None,
) -> CheckReport:
    """Max over the grid of |L_xi g| = |D_mu xi_nu + D_nu xi_mu|, normalized
    by 1 + |xi| |dg|."""
    span = Span()
    grid = np.asarray(grid, dtype=float)
    per_point = killing_residual_values(m, xi, grid)
    return span.report(check_id, per_point, tolerance, grid, case=case, params=dict(m.env))


def killing_residual_values(m: MetricSpec, xi: VectorFieldSpec, grid: np.ndarray) -> np.ndarray:
    if len(xi.components) != m.dim:
        raise GeometryError("vector field dimension does not match the metric")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    pipe, seeds = _metric_pipeline(m, tuple(grid[:, i] for i in range(m.dim)), 1, xi.components)
    g = pipe.g[0]
    dg = pipe.grad(pipe.g)[0]  # [l, a, b] = d_l g_ab
    xij = eval_tensor(xi.components, seeds)  # [c, mu, ...]
    dxi = pipe.grad(xij)[0]  # [a, l] = d_a xi^l
    # L_xi g_ab = d_a xi^l g_lb + d_b xi^l g_al + xi^l d_l g_ab
    flow = np.einsum("al...,lb...->ab...", dxi, g)
    lie = flow + np.swapaxes(flow, 0, 1) + np.einsum("l...,lab...->ab...", xij[0], dg)
    norm = 1.0 + np.max(np.abs(xij[0]), axis=0) * np.max(np.abs(dg), axis=(0, 1, 2))
    return np.max(np.abs(lie), axis=(0, 1)) / norm


def lie_bracket_at(
    xi: VectorFieldSpec,
    eta: VectorFieldSpec,
    p: Sequence[float],
    env: Optional[dict] = None,
) -> np.ndarray:
    """[xi, eta]^mu = xi^l d_l eta^mu - eta^l d_l xi^mu at a point."""
    dim = len(xi.components)
    if len(eta.components) != dim:
        raise GeometryError("vector fields have different dimensions")
    seeds = coordinate_seeds(_infer_coords(xi, eta, dim, env), tuple(float(v) for v in p), env or {}, 1)
    return _bracket_values(eval_tensor(xi.components, seeds), eval_tensor(eta.components, seeds))


def _bracket_values(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Values [mu, ...] of the bracket of two field jets."""
    nv = X.shape[1]
    xdy = np.einsum("l...,lm...->m...", X[0], partials(Y, nv)[0])
    return xdy - np.einsum("l...,lm...->m...", Y[0], partials(X, nv)[0])


_DEFAULT_COORDS = ("t", "x", "y")


def _infer_coords(xi, eta, dim, env=None) -> tuple[str, ...]:
    used = set().union(*(free_symbols(c) for c in xi.components + eta.components))
    unknown = used - set(_DEFAULT_COORDS[:dim]) - set(env or {})
    if unknown:
        raise GeometryError(
            f"bracket fields use symbols {sorted(unknown)}; expected coordinates {_DEFAULT_COORDS[:dim]}"
        )
    return _DEFAULT_COORDS[:dim]


def independence_rank(m: MetricSpec, fields: Sequence[VectorFieldSpec], p: Sequence[float]) -> int:
    """Rank of the stacked value + first-derivative matrix at a point."""
    seeds = coordinate_seeds(m.coords, tuple(float(v) for v in p), m.env, 1)
    jets = [eval_tensor(xi.components, seeds) for xi in fields]
    # one row per field: its values xi^mu, then its partials d_l xi^mu, mu-major
    return _rank(np.array([np.concatenate([X[0], partials(X, m.dim)[0].T.ravel()]) for X in jets]))


def closure_residual(
    fields: Sequence[VectorFieldSpec],
    points: Sequence[Sequence[float]],
    coords: Sequence[str] = _DEFAULT_COORDS,
    env: Optional[dict] = None,
) -> float:
    """Worst least-squares residual of expressing pairwise brackets in the
    span of the fields, sampled at the given points."""
    dim = len(fields[0].components)
    pts = np.asarray(points, dtype=float)
    seeds = coordinate_seeds(coords[:dim], tuple(pts[:, i] for i in range(dim)), env or {}, 1)
    jets = [eval_tensor(xi.components, seeds) for xi in fields]
    # one row per (point, component), point-major; one column per field
    A = np.array([X[0].T.ravel() for X in jets]).T
    resids = [0.0]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            b = _bracket_values(jets[i], jets[j]).T.ravel()
            sol = np.linalg.lstsq(A, b, rcond=None)[0]
            resids.append(np.linalg.norm(A @ sol - b) / (1.0 + np.linalg.norm(b)))
    return _argworst(resids)[0]


# -- dimension estimator --------------------------------------------------------


def killing_dimension_estimate(m: MetricSpec, p: Sequence[float], depth: int = 2) -> int:
    """Dimension of the linear space of Killing initial data (xi, L) at p
    compatible with L_xi Riemann = 0 (depth 1) and additionally
    L_xi (D Riemann) = 0 (depth 2)."""
    if depth < 1 or depth > 2:
        raise GeometryError("depth must be 1 or 2 (jet order budget)")
    point = tuple(float(v) for v in p)
    order = 3 if depth == 1 else 4
    pipe = _metric_pipeline(m, point, order)[0]
    dim = m.dim
    ginv = pipe.ginv[0]

    # covariant derivatives carry the derivative index last: T^r_{s m n; a}
    dR = pipe.cov_deriv(pipe.riemann, 1, 3)
    tensors = [(pipe.riemann[0], dR[0])]
    if depth == 2:
        tensors.append((dR[0], pipe.cov_deriv(dR, 1, 4)[0]))

    # unknowns: xi^a, then one so(p,q) generator per pair c < d, the
    # antisymmetric initial data D_l xi^r = g^{rd} delta_lc - g^{rc} delta_ld
    c, d = np.triu_indices(dim, 1)
    eye = np.eye(dim)
    gens = np.einsum("rk,kl->krl", ginv[:, d], eye[c]) - np.einsum("rk,kl->krl", ginv[:, c], eye[d])
    # constraint rows that are pure roundoff must count as zero, so the
    # rank cutoff is relative to the curvature magnitude, not only to the
    # largest singular value of the (possibly all-noise) matrix
    scale = max([1.0] + [float(np.max(np.abs(X))) for pair in tensors for X in pair])
    blocks = []
    for T, DT in tensors:
        # one row per component of L_xi T: xi^a D_a T - (D_l xi^r) T^l_{...}
        # + (D_s xi^l) T^r_{...l...} for each lower slot s
        lower = "stuv"[: T.ndim - 1]
        coef = -np.einsum(f"krl,l{lower}->kr{lower}", gens, T)
        for s in lower:
            coef += np.einsum(f"kl{s},r{lower.replace(s, 'l')}->kr{lower}", gens, T)
        blocks.append(np.hstack([DT.reshape(-1, dim), coef.reshape(len(gens), -1).T]))
    return dim + len(gens) - _rank(np.vstack(blocks), scale)


def _rank(M: np.ndarray, scale: float = 0.0) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_CUTOFF * max(s[0], scale)))


def killing_dimension(
    m: MetricSpec, points: Sequence[Sequence[float]], depth: int = 2
) -> int:
    """Estimate at several generic points; disagreement is an error, never
    averaged away."""
    estimates = [killing_dimension_estimate(m, p, depth) for p in points]
    if len(set(estimates)) != 1:
        raise GeometryError(f"killing dimension estimates disagree across points: {estimates}")
    return estimates[0]
