"""Independent oracles: finite differences and random test-case generators.

Derivatives come from Richardson-extrapolated central differences, and
expression/metric generators emit closed forms in the expression language
(``random_safe_expr`` builds its trees directly, equal to the parse of
their text); the engine checks compare these against the jets, sharing no
derivative code.  ``fd_partial`` tables the nested central differences of a
multi-index set, at h and h/2, on one integer lattice in units of h/2 and
evaluates them in one call.  Order-3/4 partials telescope: one jet on the
``telescope_seeds`` columns, the point and its ±h and ±h/2 offsets, gives
the point's jet, and ``telescope_partials`` first-differences the exact
lower partials of the offsets, so the jets supply only the order already
checked.  Both take one expression at a time or a forest: ``fd_partial``'s
``f`` may return one value column per expression, and seeds with a leading
expression axis drive an ``exprlang.Tape`` walk of the whole forest.

Step sizes grow with the derivative order: a fourth derivative divides by
h^4, so the roundoff floor of an h = 1e-3 stencil is ~1e-4 and would drown
the comparison; the defaults below keep every order's combined truncation
and roundoff near 1e-8.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .exprlang import BinOp, Call, Neg, Num, Sym, coordinate_seeds
from .geometry import MetricSpec
from .jets import MAX_ORDER, Jet, JetSpace

__all__ = [
    "fd_partial",
    "random_safe_expr",
    "random_smooth_metric",
    "telescope_partials",
    "telescope_seeds",
]

_STEP_BY_ORDER = {0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 5e-3, 4: 2e-2}


@lru_cache(maxsize=64)
def _stencil(alphas: tuple, step: float | None):
    """The lattice offsets k·(h/2) of a multi-index set; per difference (the
    coarse ones at h, then the fine ones at h/2) its 2^|alpha| lattice rows
    in recursion order, padded to the deepest; per nesting level the
    differences it completes; and each difference's level divisor."""
    steps = [step if step is not None else _STEP_BY_ORDER[min(sum(a), 4)] for a in alphas]
    index: dict[tuple, int] = {}
    runs, depths, divisors = [], [], []
    for units, scale in ((2, 1.0), (1, 0.5)):
        for alpha, h in zip(alphas, steps):
            axes = [i for i, a in enumerate(alpha) for _ in range(a)]  # first axis outermost
            # a leaf's lattice offset sums its signed steps along each axis
            run = [
                index.setdefault((h, tuple(np.bincount(axes, signed, len(alpha)).astype(int))), len(index))
                for signed in product((units, -units), repeat=len(axes))
            ]
            runs.append(run + run[:1] * (2 ** max(map(sum, alphas)) - len(run)))
            depths.append(len(axes))
            divisors.append(2.0 * (scale * h))
    offsets = np.array([[k * (h / 2.0) for k in ks] for h, ks in index])
    done = [np.flatnonzero(np.array(depths) == level) for level in range(1, max(depths) + 1)]
    return offsets, np.array(runs), done, np.array(divisors)


def fd_partial(
    f: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    alphas: Sequence[Sequence[int]],
    step: float | None = None,
) -> np.ndarray:
    """Mixed partial derivatives, one per multi-index in ``alphas``, by
    nested central differences with one Richardson extrapolation (leading
    h^2 error cancelled); the step grows with |alpha| when ``step`` is None.
    ``f`` maps an ``(m, nv)`` array of points to an ``(m, ...)`` array of
    values and is called once; the result has shape ``(len(alphas), ...)``.
    Each level differences adjacent values of every alpha at once, innermost
    axis first, as the recursion (D(x + h) - D(x - h)) / 2h does, so a batch
    equals one call per alpha bit for bit."""
    offsets, runs, done, divisors = _stencil(tuple(map(tuple, alphas)), step)
    values = np.asarray(f(np.asarray(point, dtype=float) + offsets), dtype=float)
    x = values[runs]
    divisors = divisors.reshape((-1, 1) + (1,) * (values.ndim - 1))
    out = x[:, 0].copy()
    for rows in done:
        x = (x[:, 0::2] - x[:, 1::2]) / divisors
        out[rows] = x[rows, 0]
    coarse, fine = np.split(out, 2)
    return (4.0 * fine - coarse) / 3.0


def telescope_seeds(coords: Sequence[str], points, order: int, step: float = 1e-3) -> dict:
    """Coordinate seeds on 1 + 4·nv columns per point: column 0 is the
    point, then point ± step and point ± step/2 along each axis in turn.
    ``points`` is one point, shape (nv,), or one per expression of a
    ``Tape``, shape (expressions, nv), which leads the seeds' grid."""
    nv = len(coords)
    cols = np.repeat(np.asarray(points, dtype=float).T[..., None], 1 + 4 * nv, axis=-1)
    for k in range(nv):
        cols[k, ..., 1 + 4 * k : 5 + 4 * k] += [step, -step, step / 2.0, -step / 2.0]
    return coordinate_seeds(coords, cols, {}, order)


@lru_cache(maxsize=64)
def _telescope_table(alphas: tuple):
    """Per alpha, the row of alpha lowered on its first nonzero axis and the
    four telescope columns of that axis."""
    index = JetSpace.get(len(alphas[0]), MAX_ORDER).index
    axes = [next(k for k, a in enumerate(alpha) if a > 0) for alpha in alphas]
    rows = [index[tuple(a - (k == i) for k, a in enumerate(alpha))] for alpha, i in zip(alphas, axes)]
    return np.array(rows)[:, None], 1 + 4 * np.array(axes)[:, None] + np.arange(4)


def telescope_partials(j: Jet, alphas: Sequence[Sequence[int]], step: float = 1e-3) -> np.ndarray:
    """Order-3/4 partials, one per multi-index in ``alphas``: the Richardson
    central first-difference of the exact next-lower partial in a jet on
    the ``telescope_seeds`` columns (its last grid axis) at ``step``, of
    order at least max|alpha| - 1; a leading expression axis of the grid
    trails the result.  Nested differences would divide roundoff by h^4;
    this amplifies it by 1/h."""
    rows, cols = _telescope_table(tuple(map(tuple, alphas)))
    vals = np.moveaxis(j.coeffs, -1, 1)[rows, cols]  # (alphas, 4, expressions...)
    vals = vals * j.space.factorials[rows].reshape(rows.shape + (1,) * (vals.ndim - 2))
    coarse = (vals[:, 0] - vals[:, 1]) / (2.0 * step)
    fine = (vals[:, 2] - vals[:, 3]) / step
    return (4.0 * fine - coarse) / 3.0


# -- random generators ------------------------------------------------------------


def _number(rng, low, high):
    """A uniform draw as the six-decimal number a generated expression
    carries (``round`` gives the float that its ``.6f`` text parses to):
    the magnitude as a Num, and whether it reads negative."""
    u = rng.uniform(low, high)
    return Num(abs(round(u, 6))), u < 0.0


def _linear(rng, coords):
    """a_1 c_1 + ... + a_n c_n + b, each sign written as the operator before
    its term (the first as a negation)."""
    a, negative = _number(rng, -1, 1)
    acc = BinOp("*", Neg(a) if negative else a, Sym(coords[0]))
    for c in coords[1:]:
        a, negative = _number(rng, -1, 1)
        acc = BinOp("-" if negative else "+", acc, BinOp("*", a, Sym(c)))
    b, negative = _number(rng, -1, 1)
    return BinOp("-" if negative else "+", acc, b)


def _product(factors):
    return reduce(lambda left, right: BinOp("*", left, right), factors)


def _bounded(rng, coords, depth):
    """An expression whose value and low-order derivatives stay O(1), as the
    factors of a left-folded product: ``0.5*`` in front of a product
    extends its factor list, as the parser reads ``0.5*a*b``."""
    if depth <= 0:
        return [Call("tanh", _linear(rng, coords))]
    r = rng.random()
    inner = lambda: _product(_bounded(rng, coords, depth - 1))
    if r < 0.18:
        return [Call("sin", inner())]
    if r < 0.36:
        linear = _linear(rng, coords)
        return [Call("cos", BinOp("+", linear, inner()))]
    if r < 0.5:
        return [Call("tanh", inner())]
    if r < 0.6:
        first = inner()
        return [Call("arctan", BinOp("+", first, _linear(rng, coords)))]
    if r < 0.68:
        return [Call("ln", BinOp("+", Num(2.2), inner()))]
    if r < 0.76:
        return [Call("sqrt", BinOp("+", Num(2.2), inner()))]
    if r < 0.82:
        return [Call("exp", _product([Num(0.5), *_bounded(rng, coords, depth - 1)])), Num(0.6)]
    if r < 0.88:
        first = inner()
        return [first, inner(), Num(0.5)]
    if r < 0.94:
        return [BinOp("^", BinOp("+", Num(2.2), inner()), Num(1.7)), Num(0.2)]
    first = inner()
    return [BinOp("+", first, inner()), Num(0.5)]


def random_safe_expr(rng: np.random.Generator, coords: Sequence[str], depth: int = 3):
    """Composition of elementary functions that is smooth with O(1)
    derivatives in a unit box around any point; safe for FD comparison.
    Built as a tree, equal to the parse of its ``to_text`` (without spans)."""
    return _product(_bounded(rng, list(coords), depth))


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
