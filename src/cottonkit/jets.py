"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients (partial derivative / alpha!) of a
smooth function at a point, up to a fixed total order, in up to three
variables.  Arithmetic and elementary-function composition are exact at the
truncation order, so every derivative extracted from a composed jet is exact
up to floating-point roundoff -- no step sizes, no truncation error.

Coefficients are stored densely, ordered by total degree then
lexicographically, so truncating to a lower order is a prefix slice.  The
coefficient array may be scalar-valued (shape ``(ncoeff,)``) or carry one
value per grid point (shape ``(ncoeff, npts)``); the batched form evaluates a
whole grid of base points in a single pass through the arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "JetSpace",
    "jet_var",
    "jet_constant",
    "jet_apply",
    "jet_extract",
    "jet_pow",
    "FUNCTION_NAMES",
    "MAX_ORDER",
    "MAX_VARS",
]

MAX_ORDER = 4
MAX_VARS = 3

Scalar = Union[int, float, np.floating, np.ndarray]


class JetDomainError(ValueError):
    """A unary function was applied outside its real domain."""

    def __init__(self, func: str, value: float):
        self.func = func
        self.value = value
        super().__init__(f"{func} applied outside its domain (value {value!r})")


def _multi_indices(num_vars: int, order: int) -> list[tuple[int, ...]]:
    # graded order (total degree ascending), lexicographic within a degree
    out: list[tuple[int, ...]] = []

    def comps(total: int, parts: int) -> Iterable[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in comps(total - head, parts - 1):
                yield (head,) + tail

    for deg in range(order + 1):
        out.extend(sorted(comps(deg, num_vars)))
    return out


class JetSpace:
    """Index tables for one (num_vars, order) coefficient layout.

    Holds the multi-index enumeration, the Cauchy-product pairing
    (pre-sorted so a truncated product is a single gather-multiply-reduceat),
    and derivative shift tables.  Instances are cached and shared.
    """

    __slots__ = (
        "num_vars",
        "order",
        "alphas",
        "index",
        "ncoeff",
        "_mul_i",
        "_mul_j",
        "_mul_starts",
        "_deriv_src",
        "_deriv_fac",
        "_factorials",
    )

    def __init__(self, num_vars: int, order: int):
        if not 1 <= num_vars <= MAX_VARS:
            raise ValueError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
        self.num_vars = num_vars
        self.order = order
        self.alphas = _multi_indices(num_vars, order)
        self.index = {a: k for k, a in enumerate(self.alphas)}
        self.ncoeff = len(self.alphas)

        triples = []
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.alphas):
                if sum(a) + sum(b) <= order:
                    c = tuple(x + y for x, y in zip(a, b))
                    triples.append((self.index[c], i, j))
        triples.sort()
        ks = [t[0] for t in triples]
        self._mul_i = np.array([t[1] for t in triples], dtype=np.intp)
        self._mul_j = np.array([t[2] for t in triples], dtype=np.intp)
        # every k 0..ncoeff-1 occurs (pairing with the constant term)
        starts = np.searchsorted(np.array(ks), np.arange(self.ncoeff))
        self._mul_starts = starts.astype(np.intp)

        self._deriv_src = []
        self._deriv_fac = []
        if order >= 1:
            lower = _multi_indices(num_vars, order - 1)
            for v in range(num_vars):
                src = np.empty(len(lower), dtype=np.intp)
                fac = np.empty(len(lower), dtype=np.float64)
                for k, b in enumerate(lower):
                    shifted = tuple(x + (1 if t == v else 0) for t, x in enumerate(b))
                    src[k] = self.index[shifted]
                    fac[k] = b[v] + 1
                self._deriv_src.append(src)
                self._deriv_fac.append(fac)

        self._factorials = np.array(
            [math.prod(math.factorial(x) for x in a) for a in self.alphas],
            dtype=np.float64,
        )

    _CACHE: dict[tuple[int, int], "JetSpace"] = {}

    @staticmethod
    def get(num_vars: int, order: int) -> "JetSpace":
        key = (num_vars, order)
        sp = JetSpace._CACHE.get(key)
        if sp is None:
            sp = JetSpace._CACHE[key] = JetSpace(num_vars, order)
        return sp

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = a[self._mul_i] * b[self._mul_j]
        return np.add.reduceat(prod, self._mul_starts, axis=0)


class Jet:
    """A truncated Taylor expansion; immutable by convention.

    ``coeffs[k]`` is the Taylor coefficient for multi-index
    ``space.alphas[k]``, i.e. the partial derivative divided by alpha!.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    @property
    def num_vars(self) -> int:
        return self.space.num_vars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> Scalar:
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"Jet(n={self.num_vars}, order={self.order}, value={self.value!r})"

    # -- order alignment ---------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a jet to a higher order")
        sp = JetSpace.get(self.num_vars, order)
        return Jet(sp, self.coeffs[: sp.ncoeff])

    def _align(self, other: "Jet") -> tuple["Jet", "Jet", JetSpace]:
        if self.num_vars != other.num_vars:
            raise ValueError("jets have different variable counts")
        m = min(self.order, other.order)
        a = self.truncated(m)
        b = other.truncated(m)
        return a, b, a.space

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, sp = self._align(other)
            return Jet(sp, a.coeffs + b.coeffs)
        c = self.coeffs.copy()
        c[0] = c[0] + other
        return Jet(self.space, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, sp = self._align(other)
            return Jet(sp, a.coeffs - b.coeffs)
        c = self.coeffs.copy()
        c[0] = c[0] - other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] = c[0] + other
        return Jet(self.space, c)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, sp = self._align(other)
            return Jet(sp, sp.mul_coeffs(a.coeffs, b.coeffs))
        return Jet(self.space, self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.space, self.coeffs / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        return jet_pow(self, exponent)

    def _reciprocal(self) -> "Jet":
        c0 = self.coeffs[0]
        if np.any(c0 == 0.0):
            raise JetDomainError("reciprocal", 0.0)
        inv = jet_constant(1.0 / c0, self.num_vars, self.order)
        # Newton iteration doubles the correct truncation degree each step
        steps = max(0, math.ceil(math.log2(self.order + 1))) if self.order else 0
        for _ in range(steps):
            inv = inv * (2.0 - self * inv)
        return inv

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative w.r.t. variable ``var`` (order drops by 1)."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        if not 0 <= var < self.num_vars:
            raise IndexError(f"variable index {var} out of range")
        sp = JetSpace.get(self.num_vars, self.order - 1)
        src = self.space._deriv_src[var]
        fac = self.space._deriv_fac[var]
        gathered = self.coeffs[src]
        if gathered.ndim > 1:
            fac = fac.reshape(-1, *([1] * (gathered.ndim - 1)))
        return Jet(sp, gathered * fac)

    def compose_univariate(self, series: Sequence[Scalar]) -> "Jet":
        """Jet of ``f(self)`` given the Taylor coefficients of f at self.value."""
        du = Jet(self.space, self.coeffs.copy())
        if du.coeffs.ndim > 1:
            du.coeffs[0] = np.zeros_like(du.coeffs[0])
        else:
            du.coeffs[0] = 0.0
        acc: Union[Jet, Scalar] = series[self.order]
        for k in range(self.order - 1, -1, -1):
            acc = du * acc + series[k]
        if not isinstance(acc, Jet):  # order 0
            acc = jet_constant(acc, self.num_vars, self.order)
        return acc


# -- constructors -----------------------------------------------------------


def jet_constant(value: Scalar, num_vars: int, order: int) -> Jet:
    sp = JetSpace.get(num_vars, order)
    v = np.asarray(value, dtype=np.float64)
    coeffs = np.zeros((sp.ncoeff,) + v.shape, dtype=np.float64)
    coeffs[0] = v
    return Jet(sp, coeffs)


def jet_var(index: int, value: Scalar, num_vars: int, order: int) -> Jet:
    """Jet of the coordinate function x_index at the given base value."""
    if not 0 <= index < num_vars:
        raise IndexError(f"variable index {index} out of range for {num_vars} vars")
    j = jet_constant(value, num_vars, order)
    if order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(num_vars))
        j.coeffs[j.space.index[unit]] = 1.0
    return j


def jet_extract(j: Jet, alpha: Sequence[int]) -> Scalar:
    """The exact partial derivative d^alpha f (coefficient times alpha!)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.num_vars:
        raise ValueError(f"multi-index length {len(alpha)} != num_vars {j.num_vars}")
    if sum(alpha) > j.order:
        raise ValueError(f"|alpha|={sum(alpha)} exceeds jet order {j.order}")
    k = j.space.index[alpha]
    return j.coeffs[k] * j.space._factorials[k]


# -- elementary functions -----------------------------------------------------
#
# Each generator returns the univariate Taylor coefficients c_k of the
# function at the jet's value, vectorized over batched values.


def _require_positive(func: str, v: np.ndarray) -> None:
    if np.any(v <= 0.0):
        bad = float(np.min(v))
        raise JetDomainError(func, bad)


def _coeffs_exp(v, n):
    c = [np.exp(v)]
    for k in range(1, n + 1):
        c.append(c[-1] / k)
    return c


def _coeffs_ln(v, n):
    _require_positive("ln", np.asarray(v))
    c = [np.log(v)]
    if n >= 1:
        c.append(1.0 / v)
    for k in range(2, n + 1):
        c.append(-c[-1] * (k - 1) / (k * v))
    return c


def _coeffs_sqrt(v, n):
    _require_positive("sqrt", np.asarray(v))
    c = [np.sqrt(v)]
    for k in range(1, n + 1):
        c.append(c[-1] * (1.5 - k) / (k * v))
    return c


def _coeffs_sin(v, n):
    table = [np.sin(v), np.cos(v)]
    table += [-table[0], -table[1]]
    return [table[k % 4] / math.factorial(k) for k in range(n + 1)]


def _coeffs_cos(v, n):
    table = [np.cos(v), -np.sin(v)]
    table += [-table[0], -table[1]]
    return [table[k % 4] / math.factorial(k) for k in range(n + 1)]


def _coeffs_sinh(v, n):
    s, ch = np.sinh(v), np.cosh(v)
    return [(s if k % 2 == 0 else ch) / math.factorial(k) for k in range(n + 1)]


def _coeffs_cosh(v, n):
    s, ch = np.sinh(v), np.cosh(v)
    return [(ch if k % 2 == 0 else s) / math.factorial(k) for k in range(n + 1)]


def _coeffs_tanh(v, n):
    # y' = 1 - y^2 gives the coefficient recurrence
    c = [np.tanh(v)]
    for k in range(n):
        conv = sum(c[i] * c[k - i] for i in range(k + 1))
        c.append(((1.0 if k == 0 else 0.0) - conv) / (k + 1))
    return c


def _coeffs_arctan(v, n):
    # (1 + (v+s)^2) y'(s) = 1 with p = (1+v^2, 2v, 1)
    p0 = 1.0 + v * v
    p1 = 2.0 * v
    c = [np.arctan(v)]
    if n >= 1:
        c.append(1.0 / p0)
    for k in range(1, n):
        nxt = (-k * c[k] * p1 - (k - 1) * c[k - 1]) / ((k + 1) * p0)
        c.append(nxt)
    return c


_FUNC_COEFFS = {
    "exp": _coeffs_exp,
    "ln": _coeffs_ln,
    "sqrt": _coeffs_sqrt,
    "sin": _coeffs_sin,
    "cos": _coeffs_cos,
    "sinh": _coeffs_sinh,
    "cosh": _coeffs_cosh,
    "tanh": _coeffs_tanh,
    "arctan": _coeffs_arctan,
}

FUNCTION_NAMES = frozenset(_FUNC_COEFFS)


def jet_apply(fn: str, j: Jet) -> Jet:
    """Jet of ``fn(j)`` for a named elementary function, exact to j.order."""
    gen = _FUNC_COEFFS.get(fn)
    if gen is None:
        raise ValueError(f"unknown function {fn!r}; known: {sorted(FUNCTION_NAMES)}")
    series = gen(j.coeffs[0], j.order)
    return j.compose_univariate(series)


def _integer_exponent(e):
    """Whether jet_pow raises to ``e`` by repeated multiplication (an
    integer of magnitude at most 512); elementwise for arrays."""
    if isinstance(e, np.ndarray):
        return (np.abs(e) <= 512) & (e == np.round(e))
    return abs(e) <= 512 and e == round(e)


def jet_pow(j: Jet, exponent: Scalar) -> Jet:
    """j**exponent: integer exponents by repeated multiplication,
    non-integer routed through exp(e*ln(j)) (requires positive value)."""
    e = float(exponent)
    if _integer_exponent(e):
        n = int(round(e))
        if n == 0:
            return jet_constant(np.ones_like(j.coeffs[0]), j.num_vars, j.order)
        base = j if n > 0 else j._reciprocal()
        n = abs(n)
        acc = None
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc
    try:
        return jet_apply("exp", jet_apply("ln", j) * e)
    except JetDomainError:
        raise JetDomainError("pow", float(np.min(j.coeffs[0])))

