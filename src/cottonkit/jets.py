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
whole grid of base points in a single pass through the arithmetic.  A tensor
jet is one float array (ncoeff, *index_axes, *grid) in the same layout
(Neidinger, SIAM Review 52(3), 2010).

This module owns the layout and the product schedule: no other module reads
the pair, shift, division or derivative tables.  A product takes the terms of
each coefficient in increasing first factor: one multiply (or einsum) of all
pairs and one reduceat on few values (``_GATHER_MAX_ELEMENTS`` per coefficient,
``_GATHER_MAX_POINTS`` grid points for tensor jets), else shift-accumulated by
first factor.  The paths agree to rounding, not bit for bit: reduceat adds the
first term to numpy's pairwise sum of the rest.  A quotient is one pass of
the Taylor division recurrence, degree by degree (Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, section 13.2).

This module also owns the domain rules.  ``jet_apply``, ``jet_divide`` and
``jet_pow``, and so the jet operators ``/`` and ``**``, take floats, arrays
or jets, judge a jet by its value, and raise JetDomainError where a rule is
broken: ``ln`` and ``sqrt`` need an argument > 0; a divisor must be nonzero,
and so must the base of a negative integer power; ``a ** b`` needs ``a`` > 0
unless ``b`` is a constant integer of magnitude at most 512; ``exp``,
``sinh``, ``cosh`` and ``**`` raise on overflow instead of returning inf.  On
floats and arrays they compute the numpy call or ``**`` that they guard.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "JetSpace",
    "jet_var",
    "jet_constant",
    "jet_apply",
    "jet_divide",
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
    """A domain rule was broken: an argument outside a function's real
    domain, a zero divisor or an overflow."""

    def __init__(self, func: str, value: float, message: Optional[str] = None):
        self.func = func
        self.value = value
        super().__init__(message or f"{func} applied outside its domain (value {value!r})")


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


# Products whose operands hold at most this many values per coefficient
# gather every coefficient pair into one multiply and one reduceat; larger
# ones shift-accumulate one first factor at a time, which holds no pairs x
# values temporary.  Gather / shift time in us, single-thread BLAS on a
# 2-vCPU Xeon with numpy 2.4, for order 4 in 3 variables: 43 / 152 at 27
# values, 144 / 191 at 128, 237 / 234 at 192, 686 / 242 at 256, 984 / 285 at
# 343, 12,040 / 2,009 at 4096, 4,290 / 1,468 at 3x3x343 and 136,000 / 29,600
# at 9x4096; at 192 values, 111 / 114 for order 3 in 3 variables, 80 / 80
# for order 4 in 2 and 29 / 20 for order 2 in 2.
_GATHER_MAX_ELEMENTS = 192


class JetSpace:
    """Index tables for one (num_vars, order) coefficient layout.

    Holds the multi-index enumeration, the Cauchy-product pairing (pre-sorted
    so a truncated product is one gather-multiply-reduceat), the same pairs
    grouped by first factor for the shift-accumulate product on large grids,
    the pairs of each degree for the one-pass division, and derivative shift
    tables.  Instances are cached and shared.
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
        "_shift",
        "_top",
        "_steps",
        "_div",
        "_deriv_src",
        "_deriv_fac",
        "factorials",
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
        ks = np.array([t[0] for t in triples], dtype=np.intp)
        self._mul_i = np.array([t[1] for t in triples], dtype=np.intp)
        self._mul_j = np.array([t[2] for t in triples], dtype=np.intp)
        # every k 0..ncoeff-1 occurs (pairing with the constant term)
        self._mul_starts = np.searchsorted(ks, np.arange(self.ncoeff)).astype(np.intp)

        # The shift products' steps, in increasing first factor i > 0: adding
        # alpha_i keeps the graded lexicographic order, so the targets k of i
        # have the partners j = 0..len(k)-1.  The scalar product takes each i
        # below top with all its partners and the highest degree, from top on
        # (j = 0 alone, the last term of k = i), in one slice; the tensor product
        # takes each partner degree [lo, hi) apart, one block of terms at most.
        degrees = np.array([sum(a) for a in self.alphas])
        self._top = max(1, int(np.searchsorted(degrees, order)))
        firsts = [(i, ks[self._mul_i == i]) for i in range(1, self.ncoeff)]
        self._shift = firsts[: self._top - 1]
        bounds = np.searchsorted(degrees, np.arange(order + 2))
        self._steps = [(i, k[lo:hi], lo, hi) for i, k in firsts for lo, hi in zip(bounds, bounds[1:]) if lo < len(k)]
        # per degree d >= 1: the coefficient block [lo, hi), its pairs with
        # i != 0 (so |j| < d) and where each coefficient's pairs start
        self._div = []
        for d in range(1, order + 1):
            lo, hi = np.searchsorted(degrees, [d, d + 1])
            sel = (ks >= lo) & (ks < hi) & (self._mul_i != 0)
            starts = np.searchsorted(ks[sel], np.arange(lo, hi)).astype(np.intp)
            self._div.append((lo, hi, self._mul_i[sel], self._mul_j[sel], starts))

        # coefficient k of d_v, one order lower, is fac[k, v] times src[k, v]
        lower = np.array(_multi_indices(num_vars, order - 1), dtype=np.intp).reshape(-1, num_vars)
        shifted = lower[:, None, :] + np.eye(num_vars, dtype=np.intp)
        src = [self.index[tuple(s)] for s in shifted.reshape(-1, num_vars)]
        self._deriv_src = np.array(src, dtype=np.intp).reshape(lower.shape)
        self._deriv_fac = lower + 1.0

        self.factorials = np.array(
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

    # (ncoeff, nv) -> (nv, order): ncoeff = comb(nv + order, order) is unique per nv
    _LAYOUTS = {(math.comb(nv + o, o), nv): (nv, o) for nv in range(1, MAX_VARS + 1) for o in range(MAX_ORDER + 1)}

    @staticmethod
    def for_length(ncoeff: int, num_vars: int) -> "JetSpace":
        """The layout with ``ncoeff`` coefficients in ``num_vars`` variables."""
        return JetSpace.get(*JetSpace._LAYOUTS[ncoeff, num_vars])

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if max(a.size // len(a), b.size // len(b)) <= _GATHER_MAX_ELEMENTS:
            return np.add.reduceat(a[self._mul_i] * b[self._mul_j], self._mul_starts, axis=0)
        # coefficient k sums its terms in increasing first factor i
        out = a[0] * b
        for i, k in self._shift:
            out[k] += a[i] * b[: len(k)]
        out[self._top :] += a[self._top :] * b[0]
        return out


class Jet:
    """A truncated Taylor expansion; immutable by convention.

    ``coeffs[k]`` is the Taylor coefficient for multi-index
    ``space.alphas[k]``, i.e. the partial derivative divided by alpha!.
    """

    __slots__ = ("space", "coeffs")

    # an ndarray or numpy scalar on the left of an operator defers to the
    # jet's reflected operator instead of building an object array
    __array_ufunc__ = None

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
        return jet_divide(self, other)

    def __rtruediv__(self, other):
        return jet_divide(other, self)

    def __pow__(self, exponent):
        return jet_pow(self, exponent)

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative w.r.t. variable ``var`` (order drops by 1)."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        if not 0 <= var < self.num_vars:
            raise IndexError(f"variable index {var} out of range")
        return Jet(JetSpace.get(self.num_vars, self.order - 1), partials(self.coeffs, self.num_vars, var))

    def compose_univariate(self, series: Sequence[Scalar]) -> "Jet":
        """Jet of ``f(self)`` given the Taylor coefficients of f at self.value,
        by Horner's rule in du = self - value with step k at order - k (du^k
        multiplies its accumulator later): each step zero-pads the accumulator
        by one degree and sums the same terms as a full-order step.  du has
        no constant term, so each step sets coefficient 0 to c_k: a product
        with du never feeds it, and an overflowed higher c_k (inf * 0 = NaN)
        cannot reach the value."""
        nv, order = self.num_vars, self.order
        if order == 0:
            return jet_constant(series[0], nv, 0)
        du = self.coeffs.copy()
        du[0] = 0.0
        acc = du[: nv + 1].copy()
        acc[0] = series[order - 1]
        acc[1:] *= series[order]
        for k in range(order - 2, -1, -1):
            sp = JetSpace.get(nv, order - k)
            padded = np.zeros((sp.ncoeff,) + acc.shape[1:])
            padded[: len(acc)] = acc
            acc = sp.mul_coeffs(du[: sp.ncoeff], padded)
            acc[0] = series[k]
        return Jet(self.space, acc)


# -- tensor jets ----------------------------------------------------------------


# Tensor products on at most this many grid points gather every pair into one
# einsum; larger grids shift-accumulate, holding one partner degree block of
# terms.  Gather / shift time over orders 2-4 and four pipeline specs,
# single-thread BLAS, 2-vCPU Xeon, numpy 2.4: 0.04-0.34 at 1 point, 0.14-0.69
# at 8, 0.31-2.2 at 27 and 2.1-6.8 at 343 points.
_GATHER_MAX_POINTS = 8


def tensor_mul(A: np.ndarray, B: np.ndarray, spec: str, nv: int) -> np.ndarray:
    """Truncated Cauchy product of two tensor jets at the lower of their
    orders: coefficient k sums ``np.einsum(spec, A[i], B[j])`` over its pairs
    (i, j) in increasing i, by one einsum of all pairs or one per step."""
    sp = JetSpace.for_length(min(len(A), len(B)), nv)
    operands, result = spec.split("->")
    sa, sb = operands.split(",")
    # grid points: the axes after the coefficient axis and the named index axes
    npts = max(math.prod(T.shape[1 + len(sub.replace("...", "")) :]) for T, sub in ((A, sa), (B, sb)))
    if npts <= _GATHER_MAX_POINTS:
        terms = np.einsum(f"z{sa},z{sb}->z{result}", A[sp._mul_i], B[sp._mul_j])
        return np.add.reduceat(terms, sp._mul_starts, axis=0)
    shift = f"{sa},z{sb}->z{result}"
    out = np.einsum(shift, A[0], B[: sp.ncoeff])
    buf = np.empty((max((hi - lo for *_, lo, hi in sp._steps), default=0),) + out.shape[1:])
    for i, rows, lo, hi in sp._steps:
        for row, term in zip(rows, np.einsum(shift, A[i], B[lo:hi], out=buf[: hi - lo])):
            out[row] += term
    return out


def column_products(A: np.ndarray, ia: tuple, B: np.ndarray, ib: tuple, nv: int) -> np.ndarray:
    """Truncated products of the scalar-jet columns A[:, ia[0][n], ...] and
    B[:, ib[0][n], ...] (one index array per index axis), stacked on axis 1.
    Small grids gather all columns into one ``JetSpace.mul_coeffs`` call;
    larger ones write each product into place and hold no gathered copy."""
    sp = JetSpace.for_length(len(A), nv)
    grid = A.shape[1 + len(ia) :]
    if math.prod(grid) <= _GATHER_MAX_POINTS:
        return sp.mul_coeffs(A[(slice(None),) + ia], B[(slice(None),) + ib])
    out = np.empty((sp.ncoeff, len(ia[0])) + grid)
    for n, (a, b) in enumerate(zip(zip(*ia), zip(*ib))):
        out[:, n] = sp.mul_coeffs(A[(slice(None),) + a], B[(slice(None),) + b])
    return out


def partials(A: np.ndarray, nv: int, var: Optional[int] = None) -> np.ndarray:
    """Partial derivatives of a tensor (or scalar) jet, one order lower:
    ``out[c, l, ...]`` is coefficient c of d_l A, or with ``var`` given,
    ``out[c, ...]`` is coefficient c of d_var A."""
    sp = JetSpace.for_length(len(A), nv)
    src, fac = (sp._deriv_src, sp._deriv_fac) if var is None else (sp._deriv_src[:, var], sp._deriv_fac[:, var])
    # mode "clip" (every index is in range) writes into out unbuffered
    out = np.take(A, src, axis=0, out=np.empty(src.shape + A.shape[1:]), mode="clip")
    out *= fac.reshape(fac.shape + (1,) * (A.ndim - 1))
    return out


def _divide(a: Optional[np.ndarray], b: Jet) -> Jet:
    """Jet of a / b for the coefficients ``a`` in b's layout (None for the
    constant 1), in one pass of the division recurrence: c_0 = a_0 / b_0,
    then each degree d at once, c_k = (a_k - sum over the pairs (i != 0, j)
    of k of b_i c_j) (1 / b_0), where every c_j has degree below d."""
    sp, b = b.space, b.coeffs
    b0 = b[0]
    _require_nonzero_divisor(b0 == 0.0)
    a0 = 1.0 if a is None else a[0]
    c = np.empty((sp.ncoeff,) + np.broadcast_shapes(np.shape(a0), b0.shape))
    c[0] = a0 / b0
    # scaled by the rounded 1 / b_0, as the Newton reciprocal steps were:
    # dividing by b_0 instead put the kink Cotton residual at C = 9 at 3.3e-10
    # against 9.4e-11 (and 0.15 decades lower at C = 0.25 and 1)
    inv = 1.0 / b0
    for lo, hi, i, j, starts in sp._div:
        conv = np.add.reduceat(b[i] * c[j], starts, axis=0)
        c[lo:hi] = (-conv if a is None else a[lo:hi] - conv) * inv
    return Jet(sp, c)


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
    if order >= 1:  # the linear term in x_index, source of coefficient 0 of d_index
        j.coeffs[j.space._deriv_src[0, index]] = 1.0
    return j


def jet_extract(j: Jet, alpha: Sequence[int]) -> Scalar:
    """The exact partial derivative d^alpha f (coefficient times alpha!)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.num_vars:
        raise ValueError(f"multi-index length {len(alpha)} != num_vars {j.num_vars}")
    if sum(alpha) > j.order:
        raise ValueError(f"|alpha|={sum(alpha)} exceeds jet order {j.order}")
    k = j.space.index[alpha]
    return j.coeffs[k] * j.space.factorials[k]


# -- domain rules: one guard per rule ------------------------------------------


def _any(mask) -> bool:
    # np.any costs microseconds on the scalar comparisons of pointwise use
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _value(x):
    return x.coeffs[0] if isinstance(x, Jet) else x


def _require_positive(func: str, v) -> None:
    if _any(v <= 0.0):
        raise JetDomainError(func, float(np.min(v)))


def _require_nonzero_divisor(zero) -> None:
    """The divisor rule, given where the divisor is zero."""
    if _any(zero):
        raise JetDomainError("reciprocal", 0.0, "division by zero")


def _finite(name: str, fn, *args):
    """fn(*args), raising a JetDomainError where it overflows."""
    try:
        with np.errstate(over="raise"):
            return fn(*args)
    except (OverflowError, FloatingPointError):
        raise JetDomainError(name, math.inf, f"overflow in {name}") from None


# -- elementary functions -----------------------------------------------------
#
# Each generator returns the univariate Taylor coefficients c_k of the
# function at the jet's value, vectorized over batched values.


def _coeffs_exp(v, n):
    c = [np.exp(v)]
    for k in range(1, n + 1):
        c.append(c[-1] / k)
    return c


def _coeffs_ln(v, n):
    c = [np.log(v)]
    if n >= 1:
        c.append(1.0 / v)
    for k in range(2, n + 1):
        c.append(-c[-1] * (k - 1) / (k * v))
    return c


def _coeffs_sqrt(v, n):
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
    # (1 + (v+s)^2) y'(s) = 1 with p = (1+v^2, 2v, 1); the value alone needs
    # no p, whose 1 + v^2 overflows at |v| > 1e154
    c = [np.arctan(v)]
    if n >= 1:
        p0 = 1.0 + v * v
        p1 = 2.0 * v
        c.append(1.0 / p0)
        for k in range(1, n):
            c.append((-k * c[k] * p1 - (k - 1) * c[k - 1]) / ((k + 1) * p0))
    return c


class _Function(NamedTuple):
    values: Callable  # the numpy function, on floats and arrays
    coeffs: Callable  # (value, order) -> Taylor coefficients c_0..c_order
    rule: Optional[str]  # the argument rule that guards it, if any


# only exp, sinh and cosh can overflow from a finite argument
_POSITIVE, _FINITE = "positive", "finite"

_FUNCTIONS = {
    "exp": _Function(np.exp, _coeffs_exp, _FINITE),
    "ln": _Function(np.log, _coeffs_ln, _POSITIVE),
    "sqrt": _Function(np.sqrt, _coeffs_sqrt, _POSITIVE),
    "sin": _Function(np.sin, _coeffs_sin, None),
    "cos": _Function(np.cos, _coeffs_cos, None),
    "sinh": _Function(np.sinh, _coeffs_sinh, _FINITE),
    "cosh": _Function(np.cosh, _coeffs_cosh, _FINITE),
    "tanh": _Function(np.tanh, _coeffs_tanh, None),
    "arctan": _Function(np.arctan, _coeffs_arctan, None),
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)


def _evaluate(f: _Function, x):
    if isinstance(x, Jet):
        return x.compose_univariate(f.coeffs(x.coeffs[0], x.order))
    return f.values(x)


def jet_apply(fn: str, x):
    """``fn(x)`` for a named elementary function under its argument rule:
    the numpy value for a float or an array, the jet exact to x.order for a
    Jet."""
    f = _FUNCTIONS.get(fn)
    if f is None:
        raise ValueError(f"unknown function {fn!r}; known: {sorted(FUNCTION_NAMES)}")
    if f.rule == _FINITE:
        return _finite(fn, _evaluate, f, x)
    if f.rule == _POSITIVE:
        _require_positive(fn, _value(x))
    return _evaluate(f, x)


def jet_divide(a, b):
    """``a / b`` for floats, arrays or jets on either side; a zero divisor
    raises."""
    if isinstance(b, Jet):
        if isinstance(a, Jet):
            a, b, _ = a._align(b)
            return _divide(a.coeffs, b)
        return _divide(None, b) * a
    _require_nonzero_divisor(b == 0.0)
    return Jet(a.space, a.coeffs / b) if isinstance(a, Jet) else a / b


def _integer_exponent(e):
    """Whether a jet is raised to ``e`` by repeated multiplication (an
    integer of magnitude at most 512); elementwise for arrays."""
    if isinstance(e, np.ndarray):
        return (np.abs(e) <= 512) & (e == np.round(e))
    return abs(e) <= 512 and e == round(e)


def jet_pow(base, exponent):
    """``base ** exponent`` for floats, arrays or jets on either side; an
    overflow raises.  A jet exponent that varies gives exp(exponent ln base),
    which needs a positive base."""
    return _finite("^", _power, base, exponent)


def _power(base, exponent):
    if isinstance(exponent, Jet):
        if np.any(exponent.coeffs[1:] != 0.0):
            _require_positive("pow", _value(base))
            log = _evaluate(_FUNCTIONS["ln"], base)
            return _evaluate(_FUNCTIONS["exp"], log * exponent if isinstance(log, Jet) else exponent * log)
        exponent = exponent.coeffs[0]
    v = _value(base)
    # a non-integer exponent needs v > 0 and a negative integer one v != 0; a
    # constant integer exponent in 0..512 takes any base
    if isinstance(exponent, np.ndarray):
        if _any(v <= 0.0):
            if np.any((v <= 0.0) & ~_integer_exponent(exponent)):
                _require_positive("pow", v)
            _require_nonzero_divisor((v == 0.0) & (exponent < 0.0))
    elif not _integer_exponent(exponent):
        _require_positive("pow", v)
    elif exponent < 0.0:
        _require_nonzero_divisor(v == 0.0)
    if not isinstance(base, Jet):
        return base**exponent
    if np.ndim(exponent):  # a grid of constant exponents: one call per distinct one
        coeffs, exponent = np.broadcast_arrays(base.coeffs, exponent[None])
        out = np.full(coeffs.shape, np.nan)  # the columns of a NaN exponent, equal to no key
        for e in dict.fromkeys(exponent[0].ravel().tolist()):
            at = exponent[0] == e
            out[:, at] = _power(Jet(base.space, coeffs[:, at]), e).coeffs
        return Jet(base.space, out)
    e = float(exponent)
    if _integer_exponent(e):
        # integer exponents by repeated multiplication
        n = int(round(e))
        if n == 0:
            return jet_constant(np.ones_like(base.coeffs[0]), base.num_vars, base.order)
        j = base if n > 0 else _divide(None, base)
        n = abs(n)
        acc = None
        while n:
            if n & 1:
                acc = j if acc is None else acc * j
            n >>= 1
            if n:
                j = j * j
        return acc
    # one composition with the binomial series c_k = c_{k-1} (e - k + 1) / (k v)
    series = [v**e]
    for k in range(1, base.order + 1):
        series.append(series[-1] * (e - k + 1) / (k * v))
    return base.compose_univariate(series)
