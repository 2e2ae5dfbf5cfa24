"""Closed-form scalar expression language.

Metric components, gauge potentials, coordinate maps and potentials all
enter the toolkit as expressions in this small language:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-x^2``
is ``-(x^2)``.  Implicit multiplication is a syntax error.  Function names
are the jet-supported set (tanh, cosh, sinh, exp, ln, sqrt, sin, cos,
arctan).  Parsed trees are immutable; evaluation is generic over jet
arithmetic, so feeding jets as coordinate values composes maps for free.

There is one evaluator, a tree walker whose bindings may be floats, numpy
arrays or jets: ``eval_array`` runs it on values, ``eval_jet`` on
coordinates lifted to jets.  The walker only walks, folds scalar results to
Python floats and attaches spans: functions, division and powers go through
``jets.jet_apply``, ``jets.jet_divide`` and ``jets.jet_pow``, which own the
domain rules (arguments of ``ln`` and ``sqrt``, zero divisors, the domain of
``^`` and overflow).  So an expression is real-valued and means the same
thing on values and on jets, or raises ExprEvalError with the span of the
sub-expression that broke a rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .jets import FUNCTION_NAMES, Jet, JetDomainError, jet_apply, jet_constant, jet_divide, jet_pow, jet_var

__all__ = [
    "ExprAst",
    "Num",
    "Sym",
    "Neg",
    "BinOp",
    "Call",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse_expr",
    "to_text",
    "eval_jet",
    "eval_array",
    "coordinate_seeds",
    "free_symbols",
    "validate_symbols",
    "substitute",
]

Span = tuple[int, int]  # 1-based [start, end) character positions


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"syntax error at position {position}: {message}")


class ExprEvalError(ValueError):
    def __init__(self, message: str, span: Span = (0, 0)):
        self.span = span
        if span != (0, 0):
            message = f"{message} (at characters {span[0]}..{span[1] - 1})"
        super().__init__(message)


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Sym:
    name: str
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


ExprAst = Union[Num, Sym, Neg, BinOp, Call]


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i + 1))
        i = m.end()
    tokens.append(("eof", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, p = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ExprSyntaxError(f"expected {op!r}", p)

    def parse(self) -> ExprAst:
        e = self.expr()
        kind, val, p = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {val!r}", p)
        return e

    def expr(self) -> ExprAst:
        left = self.term()
        while True:
            kind, val, p = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                right = self.term()
                left = BinOp(val, left, right, (left.span[0], right.span[1]))
            else:
                return left

    def term(self) -> ExprAst:
        left = self.factor()
        while True:
            kind, val, p = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                right = self.factor()
                left = BinOp(val, left, right, (left.span[0], right.span[1]))
            else:
                return left

    def factor(self) -> ExprAst:
        kind, val, p = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            child = self.factor()
            return Neg(child, (p, child.span[1]))
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        kind, val, p = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.factor()
            return BinOp("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def atom(self) -> ExprAst:
        kind, val, p = self.advance()
        if kind == "num":
            return Num(float(val), (p, p + len(val)))
        if kind == "ident":
            k2, v2, p2 = self.peek()
            if k2 == "op" and v2 == "(":
                self.advance()
                arg = self.expr()
                closing = self.expect_op(")")
                return Call(val, arg, (p, closing[2] + 1))
            return Sym(val, (p, p + len(val)))
        if kind == "op" and val == "(":
            e = self.expr()
            closing = self.expect_op(")")
            return e
        raise ExprSyntaxError("expected expression", p)


def parse_expr(text: str) -> ExprAst:
    """Parse an expression string; raises ExprSyntaxError with a 1-based position."""
    return _Parser(text).parse()


# -- pretty printer -----------------------------------------------------------

_LEVEL_SUM, _LEVEL_PROD, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: ExprAst) -> int:
    if isinstance(e, (Sym, Call)):
        return _LEVEL_ATOM
    if isinstance(e, Num):
        return _LEVEL_ATOM if e.value >= 0 else _LEVEL_UNARY
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if e.op in "+-":
        return _LEVEL_SUM
    if e.op in "*/":
        return _LEVEL_PROD
    return _LEVEL_POW


def _wrap(e: ExprAst, minimum: int) -> str:
    s = to_text(e)
    return f"({s})" if _level(e) < minimum else s


def to_text(e: ExprAst) -> str:
    """Canonical text form; parsing it back yields an equal tree."""
    if isinstance(e, Num):
        return repr(e.value) if e.value >= 0 else f"-{abs(e.value)!r}"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.child, _LEVEL_UNARY)
    if e.op == "+":
        return f"{_wrap(e.left, _LEVEL_SUM)}+{_wrap(e.right, _LEVEL_SUM + 1)}"
    if e.op == "-":
        return f"{_wrap(e.left, _LEVEL_SUM)}-{_wrap(e.right, _LEVEL_SUM + 1)}"
    if e.op == "*":
        return f"{_wrap(e.left, _LEVEL_PROD)}*{_wrap(e.right, _LEVEL_PROD + 1)}"
    if e.op == "/":
        return f"{_wrap(e.left, _LEVEL_PROD)}/{_wrap(e.right, _LEVEL_PROD + 1)}"
    # '^': left must be an atom, right may be any factor
    return f"{_wrap(e.left, _LEVEL_ATOM)}^{_wrap(e.right, _LEVEL_UNARY)}"


# -- symbol utilities ---------------------------------------------------------


def free_symbols(e: ExprAst) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Neg):
        return free_symbols(e.child)
    if isinstance(e, Call):
        return free_symbols(e.arg)
    return free_symbols(e.left) | free_symbols(e.right)


def validate_symbols(e: ExprAst, allowed: set[str]) -> None:
    """Raise ExprEvalError if any symbol or function name is unresolvable."""
    if isinstance(e, Sym):
        if e.name not in allowed:
            raise ExprEvalError(f"unresolved symbol {e.name!r}", e.span)
    elif isinstance(e, Neg):
        validate_symbols(e.child, allowed)
    elif isinstance(e, Call):
        if e.func not in FUNCTION_NAMES:
            raise ExprEvalError(f"unknown function {e.func!r}", e.span)
        validate_symbols(e.arg, allowed)
    elif isinstance(e, BinOp):
        validate_symbols(e.left, allowed)
        validate_symbols(e.right, allowed)


def substitute(e: ExprAst, mapping: Mapping[str, ExprAst]) -> ExprAst:
    """Replace symbols by expressions (pure tree rewrite)."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.child, mapping), e.span)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping), e.span)
    return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping), e.span)


# -- evaluation ---------------------------------------------------------------
#
# An evaluation on values alone builds no Jet: the jets-fd check uses it as
# the independent reference for the jet engine.  ``coordinate_seeds`` and
# ``_expr_jet`` are the one way to lift coordinates to jets and a constant
# result to a constant jet.


def _fold(v):
    # a Python float: a numpy scalar times a Jet detours through object arrays
    return v if isinstance(v, (Jet, np.ndarray)) else float(v)


def _eval(e: ExprAst, bindings):
    """The walker: symbols bound to floats, arrays or jets.  Domain errors
    raise ExprEvalError with the offending sub-expression's source span."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Sym):
        try:
            return bindings[e.name]
        except KeyError:
            raise ExprEvalError(f"unresolved symbol {e.name!r}", e.span) from None
    if isinstance(e, Neg):
        return -_eval(e.child, bindings)
    if isinstance(e, Call):
        arg = _eval(e.arg, bindings)
        try:
            return _fold(jet_apply(e.func, arg))
        except ValueError as err:  # unknown function or JetDomainError
            raise ExprEvalError(str(err), e.span) from err
    left, right = _eval(e.left, bindings), _eval(e.right, bindings)
    if e.op == "+":
        return _fold(left + right)
    if e.op == "-":
        return _fold(left - right)
    if e.op == "*":
        return _fold(left * right)
    try:
        return _fold(jet_divide(left, right) if e.op == "/" else jet_pow(left, right))
    except JetDomainError as err:
        raise ExprEvalError(str(err), e.span) from err


def eval_array(e: ExprAst, bindings: Mapping[str, Union[float, np.ndarray]]) -> np.ndarray:
    """Values of the expression with symbols bound to floats or arrays (no
    derivatives).

    Returns a new float array with the broadcast shape of the bound values
    (0-d when they are all scalars).  A domain error anywhere raises
    ExprEvalError with the offending sub-expression's span.
    """
    value = np.array(_eval(e, bindings), dtype=float)
    shapes = [v.shape for v in bindings.values() if isinstance(v, np.ndarray) and v.shape != value.shape]
    if shapes:
        value = np.broadcast_to(value, np.broadcast_shapes(value.shape, *shapes)).copy()
    return value


def coordinate_seeds(
    coords: Sequence[str], point: Sequence[Union[float, np.ndarray]], env: Mapping[str, float], order: int
) -> dict[str, Union[Jet, float]]:
    """Bindings of the coordinates as jet variables at the point (a float or
    a grid array per coordinate), then of the parameters as floats."""
    if not 0 < len(coords) == len(point):
        raise ValueError(f"need one point value per coordinate of at least one, got {len(point)} for {list(coords)}")
    for k in env:
        if k in coords:
            raise ExprEvalError(f"parameter {k!r} shadows a coordinate")
    seeds = {name: jet_var(i, np.asarray(point[i], dtype=float), len(coords), order) for i, name in enumerate(coords)}
    return {**seeds, **{k: float(v) for k, v in env.items()}}


def _expr_jet(e: ExprAst, seeds) -> Jet:
    """Jet of an expression over coordinate seeds; a constant becomes a
    constant jet broadcast to the seeds' grid shape."""
    val = _eval(e, seeds)
    if isinstance(val, Jet):
        return val
    ref = next(v for v in seeds.values() if isinstance(v, Jet))
    return jet_constant(np.broadcast_to(val, np.shape(ref.value)), ref.num_vars, ref.order)


def eval_jet(
    e: ExprAst,
    coords: Sequence[str],
    point: Sequence[float],
    env: Mapping[str, float],
    order: int,
) -> Jet:
    """Jet of the expression at a point; coordinates are lifted to jet
    variables, parameters enter as constants."""
    return _expr_jet(e, coordinate_seeds(coords, point, env, order))
