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

There are two walkers.  ``_eval`` walks one tree over float, array or jet
bindings; ``eval_tensor``, its one entry, turns an expression or a nested
sequence of them into values or a tensor jet.  ``Tape`` compiles a forest
into one node table and walks it level by level, one call per group of
like nodes across the forest, and equals one ``_eval`` per tree bit for
bit; it pays off on many small trees at once (the jets-fd oracle), while a
single tree is faster through ``_eval``.  Both only walk, fold constants to
Python floats and attach spans: functions, division and powers go through
``jets.jet_apply``, ``jets.jet_divide`` and ``jets.jet_pow``, which own the
domain rules (arguments of ``ln`` and ``sqrt``, zero divisors, the domain of
``^`` and overflow).  So an expression is real-valued and means the same
thing on values and on jets, or raises ExprEvalError with the span of the
sub-expression that broke a rule.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .jets import (
    _GATHER_MAX_ELEMENTS,
    FUNCTION_NAMES,
    Jet,
    JetDomainError,
    jet_apply,
    jet_divide,
    jet_pow,
    jet_var,
)

__all__ = [
    "ExprAst",
    "Num",
    "Sym",
    "Neg",
    "BinOp",
    "Call",
    "ExprSyntaxError",
    "ExprEvalError",
    "Tape",
    "parse_expr",
    "to_text",
    "eval_jet",
    "eval_array",
    "eval_tensor",
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


@dataclass(frozen=True, slots=True)
class Num:
    value: float
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class Sym:
    name: str
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class Neg:
    child: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "ExprAst"
    span: Span = field(default=(0, 0), compare=False)


ExprAst = Union[Num, Sym, Neg, BinOp, Call]
_NODES = (Num, Sym, Neg, BinOp, Call)


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
    if not isinstance(text, str):
        raise ExprSyntaxError(f"expected expression text, got {type(text).__name__} {text!r}", 1)
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
# ``eval_tensor`` is the one evaluator entry: it walks each distinct tree of a
# nested sequence once with ``_eval`` and lays the results out on the bindings'
# grid, a constant filling coefficient 0 of a jet.  On values it builds no
# Jet: the jets-fd check uses that route as the independent reference for the
# jet engine.  ``coordinate_seeds`` is the one way to lift coordinates to jets.


def _fold(v):
    # a scalar result is a Python float, whatever numpy scalar type made it
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


def eval_tensor(exprs, bindings: Mapping[str, Union[float, np.ndarray, Jet]]) -> np.ndarray:
    """One expression, or a rectangular nested sequence of them, over
    bindings of floats, arrays or jets; each distinct tree object is walked
    once.  The grid is the broadcast shape of the bound arrays and jet
    values.  On floats and arrays the result has shape (*index, *grid) and
    no Jet is built; when a binding is a jet it is the tensor jet (ncoeff,
    *index, *grid) in that jet's layout, a constant filling coefficient 0."""
    trees = np.array(exprs)  # an object array of the nesting's index shape; a ragged one raises
    space, grid = None, ()
    for v in bindings.values():
        if isinstance(v, Jet):
            space, v = v.space, v.coeffs[0]
        if isinstance(v, np.ndarray) and v.shape != grid:
            grid = np.broadcast_shapes(grid, v.shape) if grid else v.shape
    lead = () if space is None else (space.ncoeff,)
    out = np.zeros(lead + (trees.size,) + grid)
    values = out if space is None else out[0]  # where a value or a constant goes
    walked = {}
    for k, e in enumerate(trees.ravel().tolist()):
        value = walked.get(id(e))
        if value is None:
            value = walked[id(e)] = _eval(e, bindings)
        if isinstance(value, Jet):
            out[:, k] = value.coeffs
        else:
            values[k] = value
    return out.reshape(lead + trees.shape + grid)


def eval_array(e: ExprAst, bindings: Mapping[str, Union[float, np.ndarray]]) -> np.ndarray:
    """Values of the expression with symbols bound to floats or arrays (no
    derivatives): a new float array with the broadcast shape of the bound
    values, 0-d when they are all scalars (see ``eval_tensor``)."""
    return eval_tensor(e, bindings)


def coordinate_seeds(
    coords: Sequence[str], point: Sequence[Union[float, np.ndarray]], env: Mapping[str, float], order: int
) -> dict[str, Union[Jet, float]]:
    """Bindings of the coordinates as jet variables at the point (a float or
    a grid array per coordinate, broadcast to one grid), then of the
    parameters as floats."""
    if not 0 < len(coords) == len(point):
        raise ValueError(f"need one point value per coordinate of at least one, got {len(point)} for {list(coords)}")
    for k in env:
        if k in coords:
            raise ExprEvalError(f"parameter {k!r} shadows a coordinate")
    values = [np.asarray(v, dtype=float) for v in point]
    if len({v.shape for v in values}) > 1:
        values = np.broadcast_arrays(*values)
    seeds = {name: jet_var(i, values[i], len(coords), order) for i, name in enumerate(coords)}
    return {**seeds, **{k: float(v) for k, v in env.items()}}


def _expr_jet(e: ExprAst, seeds) -> Jet:
    """Jet of one expression over coordinate seeds (see ``eval_tensor``)."""
    return Jet(next(v.space for v in seeds.values() if isinstance(v, Jet)), eval_tensor(e, seeds))


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


# -- forest tape ----------------------------------------------------------------
#
# Operation batching across the expressions of a forest (Looks et al., "Deep
# Learning with Dynamic Computation Graphs", ICLR 2017; Neubig, Goldberg and
# Dyer, "On-the-fly Operation Batching in Dynamic Computation Graphs", NeurIPS
# 2017).  Each group computes element by element what ``_eval`` computes for
# each of its nodes: constants enter as the floats ``_eval`` folds, a ``^``
# with a constant operand is called once per distinct constant, and on jets a
# group is walked in runs of at most ``jets._GATHER_MAX_ELEMENTS`` values per
# coefficient, so that every product takes the path it takes for one
# expression.  So a forest equals one ``_eval`` per expression bit for bit.


class _Fallback(Exception):
    """A group that one call would not compute as ``_eval`` computes each
    of its nodes."""


def _group_pow(base, exponent):
    if isinstance(exponent, Jet):
        # jet_pow takes exp(exponent ln base) when any derivative coefficient
        # of the exponent is nonzero; every member must take the same path
        moving = exponent.coeffs[1:] != 0.0
        if not np.any(moving, axis=(0, *range(2, moving.ndim))).all():
            raise _Fallback
    return jet_pow(base, exponent)


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": jet_divide, "^": _group_pow}


class Tape:
    """A forest of expressions compiled into one node table.

    The nodes that read a coordinate are numbered in post-order, each with
    its operands' ids and its height (one more than its highest such
    operand); every other subtree is a constant, folded once by ``_eval``
    when it reads no parameter and at each run when it does.  ``run`` walks
    the table level by level, one ``jet_apply``, ``jet_divide``,
    ``jet_pow`` or operator call per group of nodes with the same height,
    operation and operand kinds, on operands gathered along a leading
    expression axis.
    """

    def __init__(self, exprs: Sequence[ExprAst], coords: Sequence[str]):
        self.exprs = list(exprs)
        self.coords = list(coords)
        n = len(self.exprs)
        first_row = {c: k * n for k, c in enumerate(self.coords)}  # the coordinates fill the first rows
        heights = [0] * (len(self.coords) * n)  # per row
        self._consts: list = []  # per slot (folded float or None, subtree)
        groups: dict = {}  # (height, node type, operator or function, operand kinds) -> (row, operand ids)

        def slot(e: ExprAst) -> int:
            try:
                self._consts.append((_eval(e, {}), e))
            except ExprEvalError:  # it reads a parameter, or raises at each run
                self._consts.append((None, e))
            return len(self._consts) - 1

        def add(key, *operands) -> int:
            heights.append(key[0])
            groups.setdefault(key, []).append((len(heights) - 1, *operands))
            return len(heights) - 1

        def visit(e: ExprAst, i: int):
            """The row of a node of expression i that reads a coordinate,
            None for a constant."""
            kind = type(e)
            if kind is Sym:
                row = first_row.get(e.name)
                return None if row is None else row + i
            if kind is Num:
                return None
            if kind is BinOp:
                a, b = visit(e.left, i), visit(e.right, i)
                if a is None and b is None:
                    return None
                if a is None:
                    return add((heights[b] + 1, kind, e.op, "cv"), slot(e.left), b)
                if b is None:
                    return add((heights[a] + 1, kind, e.op, "vc"), a, slot(e.right))
                return add((max(heights[a], heights[b]) + 1, kind, e.op, "vv"), a, b)
            a = visit(e.arg if kind is Call else e.child, i)
            return None if a is None else add((heights[a] + 1, kind, getattr(e, "func", None), "v"), a)

        roots, lifted = [], ([], [])
        for i, e in enumerate(self.exprs):
            row = visit(e, i)
            if row is None:  # a constant expression fills a row of its own
                heights.append(0)
                row = len(heights) - 1
                lifted[0].append(row)
                lifted[1].append(slot(e))
            roots.append(row)
        self._nrows = len(heights)
        self._roots = np.array(roots, dtype=np.intp)
        self._lifted = tuple(np.array(ids, dtype=np.intp) for ids in lifted)
        self._groups = []
        for (_, kind, name, roles), members in sorted(groups.items(), key=lambda item: item[0][0]):
            out, *operands = np.array(members, dtype=np.intp).T
            self._groups.append((kind, name, roles, out, operands))

    def run(self, bindings: Mapping[str, Union[float, np.ndarray, Jet]]):
        """The forest's values or jets.  Every coordinate is bound to an
        array, or every one to a jet, whose leading grid axis is the
        expression axis (entry i belongs to expression i); parameters are
        bound to floats.  On arrays the result has shape (expressions, ...)
        and no Jet is built; on jets it is one Jet whose grid leads with the
        expression axis, a constant expression lifted to a constant jet.  A
        group that raises sends the forest through ``_eval`` one expression
        at a time, so an error has the message and span ``_eval`` gives."""
        seed = bindings[self.coords[0]]
        if isinstance(seed, Jet):
            space, tail = seed.space, seed.coeffs.shape[2:]
        else:
            space, tail = None, np.broadcast_shapes(*(np.shape(bindings[c]) for c in self.coords))[1:]
        try:
            return self._walk(bindings, space, tail)
        except (ValueError, ArithmeticError, _Fallback):
            return self._each(bindings, space)

    def _walk(self, bindings, space, tail):
        n = len(self.exprs)
        consts = np.array([_eval(e, bindings) if v is None else v for v, e in self._consts], dtype=float)
        cshape = (-1,) + (1,) * len(tail)
        if space is None:
            buf = np.empty((self._nrows,) + tail)
            for k, c in enumerate(self.coords):
                buf[k * n : (k + 1) * n] = bindings[c]
            buf[self._lifted[0]] = consts[self._lifted[1]].reshape(cshape)
            get, put = buf.__getitem__, buf.__setitem__
        else:
            buf = np.empty((space.ncoeff, self._nrows) + tail)
            for k, c in enumerate(self.coords):
                buf[:, k * n : (k + 1) * n] = bindings[c].coeffs
            buf[:, self._lifted[0]] = 0.0
            buf[0, self._lifted[0]] = consts[self._lifted[1]].reshape(cshape)

            def get(rows):
                return Jet(space, buf[:, rows])

            def put(rows, j):
                if not isinstance(j, Jet):
                    raise _Fallback
                buf[:, rows] = j.coeffs

        # on jets, runs of at most `step` members keep every product on the gather path
        step = self._nrows if space is None else max(1, _GATHER_MAX_ELEMENTS // math.prod(tail))
        for kind, name, roles, out, operands in self._groups:
            for lo in range(0, len(out), step):
                rows, run = out[lo : lo + step], [ids[lo : lo + step] for ids in operands]
                if kind is Neg:
                    put(rows, -get(run[0]))
                elif kind is Call:
                    put(rows, jet_apply(name, get(run[0])))
                elif name == "^" and roles != "vv":  # one call per distinct constant, as a float
                    k = roles.index("c")
                    values = consts[run[k]]
                    bits = values.view(np.int64)
                    for b in dict.fromkeys(bits.tolist()):  # np.unique would import numpy.ma
                        sel = np.flatnonzero(bits == b)
                        args = [get(run[1 - k][sel]), float(values[sel[0]])]
                        put(rows[sel], _group_pow(*args[::-1] if k == 0 else args))
                else:
                    args = [get(ids) if role == "v" else consts[ids].reshape(cshape) for role, ids in zip(roles, run)]
                    put(rows, _BINOPS[name](*args))
        return buf[self._roots] if space is None else Jet(space, buf[:, self._roots])

    def _each(self, bindings, space):
        rows = []
        for i, e in enumerate(self.exprs):
            own = {
                c: bindings[c][i] if space is None else Jet(space, bindings[c].coeffs[:, i]) for c in self.coords
            }
            rows.append(eval_tensor(e, {**bindings, **own}))
        return np.stack(rows) if space is None else Jet(space, np.stack(rows, axis=1))
