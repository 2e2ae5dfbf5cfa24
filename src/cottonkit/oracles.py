"""Independent oracles: finite differences and random test-case generators.

Derivatives come from Richardson-extrapolated central differences, and
expression/metric generators emit closed forms in the expression language.
The engine checks compare these against the jets; they share no derivative
code.

Both difference routes are batched per point.  ``fd_partial`` collects the
distinct stencil points of all its multi-indices at h and h/2 and evaluates
the function once on all of them, on plain values only (no jets).  Partials
of order 3 and 4 telescope instead: ``fd_partial_telescoped`` evaluates one
jet of order max|alpha| - 1 on the ±h and ±h/2 offsets along every axis and
first-differences its exact lower partials, so the jet engine supplies only
the order already checked one level down.

Step sizes grow with the derivative order: a fourth derivative divides by
h^4, so the roundoff floor of an h = 1e-3 stencil is ~1e-4 and would drown
the comparison; the defaults below keep every order's combined truncation
and roundoff near 1e-8.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .exprlang import parse_expr
from .geometry import MetricSpec

__all__ = [
    "fd_partial",
    "random_safe_expr",
    "random_smooth_metric",
]

_STEP_BY_ORDER = {0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 5e-3, 4: 2e-2}


def _nested_central(f, point, alpha, h):
    total = sum(alpha)
    if total == 0:
        return f(point)
    i = next(k for k, a in enumerate(alpha) if a > 0)
    lower = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
    up = tuple(p + (h if k == i else 0.0) for k, p in enumerate(point))
    dn = tuple(p - (h if k == i else 0.0) for k, p in enumerate(point))
    return (_nested_central(f, up, lower, h) - _nested_central(f, dn, lower, h)) / (2.0 * h)


def fd_partial(
    f: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    alphas: Sequence[Sequence[int]],
    step: float | None = None,
) -> np.ndarray:
    """Mixed partial derivatives, one per multi-index in ``alphas``, by
    nested central differences with one Richardson extrapolation (leading
    h^2 error cancelled).

    ``f`` maps an ``(m, nv)`` array of points to an ``(m, ...)`` array of
    their values and is called once; the result has shape
    ``(len(alphas), ...)``, one partial array per multi-index of a vector-
    or matrix-valued ``f``.  A first pass of the stencil recursion records
    the distinct points of every alpha at h and h/2, keyed by the tuple the
    recursion builds; the second pass replays the same differences on the
    looked-up values, so each partial is the one a point-by-point evaluation
    gives.
    """
    point = tuple(point)
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    steps = [step if step is not None else _STEP_BY_ORDER[min(sum(a), 4)] for a in alphas]
    index: dict[tuple, int] = {}

    def record(q):
        index.setdefault(q, len(index))
        return 0.0

    for alpha, h in zip(alphas, steps):
        _nested_central(record, point, alpha, h)
        _nested_central(record, point, alpha, h / 2.0)
    values = np.asarray(f(np.array(list(index), dtype=float)), dtype=float)

    def lookup(q):
        return values[index[q]]

    out = []
    for alpha, h in zip(alphas, steps):
        coarse = _nested_central(lookup, point, alpha, h)
        fine = _nested_central(lookup, point, alpha, h / 2.0)
        out.append((4.0 * fine - coarse) / 3.0)
    return np.array(out)


def fd_partial_telescoped(expr, coords, point, alphas, step: float = 1e-3) -> np.ndarray:
    """Order-3/4 partials, one per multi-index in ``alphas``: Richardson
    central first-difference of the exact next-lower-order partial.

    Direct nesting of four central differences divides roundoff by h^4 and
    cannot reach 1e-6 in double precision; differencing the (order-1)
    partial keeps a 1/h roundoff amplification only, while each level of
    the telescope is still an independent finite-difference test of the
    step it adds.  One jet of order max|alpha| - 1 is evaluated on 4·nv
    columns, the offsets ±h and ±h/2 along each axis; an alpha differences
    the lower partial in the four columns of its first nonzero axis.
    """
    from .exprlang import eval_jet_bindings
    from .jets import jet_extract, jet_var

    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    order = max(sum(a) for a in alphas) - 1
    nv = len(coords)

    offsets = np.array([step, -step, step / 2.0, -step / 2.0])
    seeds = {}
    for k, name in enumerate(coords):
        col = np.full(4 * nv, point[k])
        col[4 * k : 4 * k + 4] = point[k] + offsets
        seeds[name] = jet_var(k, col, nv, order)
    j = eval_jet_bindings(expr, seeds)
    out = np.empty(len(alphas))
    for n, alpha in enumerate(alphas):
        i = next(k for k, a in enumerate(alpha) if a > 0)
        lower = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
        vals = np.asarray(jet_extract(j, lower))[4 * i : 4 * i + 4]
        coarse = (vals[0] - vals[1]) / (2.0 * step)
        fine = (vals[2] - vals[3]) / step
        out[n] = (4.0 * fine - coarse) / 3.0
    return out


# -- random generators ------------------------------------------------------------


def _linear(rng, coords):
    parts = []
    for c in coords:
        parts.append(f"{rng.uniform(-1, 1):.6f}*{c}")
    parts.append(f"{rng.uniform(-1, 1):.6f}")
    return "(" + "+".join(parts).replace("+-", "-") + ")"


def _bounded(rng, coords, depth):
    """An expression whose value and low-order derivatives stay O(1)."""
    if depth <= 0:
        return f"tanh({_linear(rng, coords)})"
    r = rng.random()
    inner = lambda: _bounded(rng, coords, depth - 1)
    if r < 0.18:
        return f"sin({inner()})"
    if r < 0.36:
        return f"cos({_linear(rng, coords)}+{inner()})"
    if r < 0.5:
        return f"tanh({inner()})"
    if r < 0.6:
        return f"arctan({inner()}+{_linear(rng, coords)})"
    if r < 0.68:
        return f"ln(2.2+{inner()})"
    if r < 0.76:
        return f"sqrt(2.2+{inner()})"
    if r < 0.82:
        return f"exp(0.5*{inner()})*0.6"
    if r < 0.88:
        return f"({inner()})*({inner()})*0.5"
    if r < 0.94:
        return f"(2.2+{inner()})^1.7*0.2"
    return f"({inner()}+{inner()})*0.5"


def random_safe_expr(rng: np.random.Generator, coords: Sequence[str], depth: int = 3):
    """Composition of elementary functions that is smooth with O(1)
    derivatives in a unit box around any point; safe for FD comparison."""
    return parse_expr(_bounded(rng, list(coords), depth))


def random_smooth_metric(
    rng: np.random.Generator,
    dim: int = 3,
    coords: Sequence[str] = ("t", "x", "y"),
    amplitude: float = 0.05,
    terms: int = 2,
) -> MetricSpec:
    """Flat metric plus small smooth trigonometric perturbations; stays
    nondegenerate everywhere for amplitude * terms well below 1."""
    coords = tuple(coords[:dim])

    def pert():
        out = []
        for _ in range(terms):
            amp = rng.uniform(0.3, 1.0) * amplitude / terms
            phases = "+".join(
                f"{rng.uniform(-0.7, 0.7):.6f}*{c}" for c in coords
            )
            out.append(f"{amp:.6f}*sin({phases}+{rng.uniform(0, 6.28):.6f})")
        return "+".join(out)

    entries = {}
    for i in range(dim):
        for j in range(i, dim):
            base = (1.0 if i == 0 else -1.0) if i == j else 0.0
            entries[(i, j)] = f"{base}+{pert()}" if base else pert()
    return MetricSpec.from_components(coords, entries)
