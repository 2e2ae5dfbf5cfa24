"""Independent oracles: finite differences and random test-case generators.

Everything here deliberately avoids the jet engine: derivatives come from
Richardson-extrapolated central differences of plain float evaluation, and
expression/metric generators emit closed forms in the expression language.
The engine checks compare the two routes; they share no derivative code.

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
    f: Callable[[Sequence[float]], float],
    point: Sequence[float],
    alpha: Sequence[int],
    step: float | None = None,
) -> float:
    """Mixed partial derivative by nested central differences with one
    Richardson extrapolation (leading h^2 error cancelled)."""
    alpha = tuple(int(a) for a in alpha)
    h = step if step is not None else _STEP_BY_ORDER[min(sum(alpha), 4)]
    coarse = _nested_central(f, tuple(point), alpha, h)
    fine = _nested_central(f, tuple(point), alpha, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def fd_partial_telescoped(expr, coords, point, alpha, step: float = 1e-3) -> float:
    """Order-3/4 partials: Richardson central first-difference of the exact
    next-lower-order partial.

    Direct nesting of four central differences divides roundoff by h^4 and
    cannot reach 1e-6 in double precision; differencing the (order-1)
    partial keeps a 1/h roundoff amplification only, while each level of
    the telescope is still an independent finite-difference test of the
    step it adds.
    """
    from .exprlang import eval_jet_bindings
    from .jets import jet_extract, jet_var

    alpha = tuple(int(a) for a in alpha)
    i = next(k for k, a in enumerate(alpha) if a > 0)
    lower = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
    order = sum(lower)
    nv = len(coords)

    offsets = np.array([step, -step, step / 2.0, -step / 2.0])
    cols = {
        name: (np.full(4, point[k]) + (offsets if k == i else 0.0))
        for k, name in enumerate(coords)
    }
    seeds = {name: jet_var(k, cols[name], nv, order) for k, name in enumerate(coords)}
    j = eval_jet_bindings(expr, seeds)
    vals = np.asarray(jet_extract(j, lower))
    coarse = (vals[0] - vals[1]) / (2.0 * step)
    fine = (vals[2] - vals[3]) / step
    return float((4.0 * fine - coarse) / 3.0)


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
