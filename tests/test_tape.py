"""The forest tape: one batched walk equals one ``_eval`` walk per expression,
bit for bit, on values and on jets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cottonkit import exprlang
from cottonkit.exprlang import ExprEvalError, Tape, _expr_jet, coordinate_seeds, eval_array, parse_expr
from cottonkit.jets import _GATHER_MAX_ELEMENTS
from cottonkit.oracles import random_safe_expr

COORDS = ["t", "x", "y"]


def _tape_values(exprs, coords, points, env, order):
    return Tape(exprs, coords).run({**dict(zip(coords, points)), **env})


def _tape_jets(exprs, coords, points, env, order):
    return Tape(exprs, coords).run(coordinate_seeds(coords, list(points), env, order)).coeffs


def _eval_values(exprs, coords, points, env, order):
    return np.array([eval_array(e, {**dict(zip(coords, points[:, i])), **env}) for i, e in enumerate(exprs)])


def _eval_jets(exprs, coords, points, env, order):
    jets = [_expr_jet(e, coordinate_seeds(coords, list(points[:, i]), env, order)) for i, e in enumerate(exprs)]
    return np.stack([j.coeffs for j in jets], axis=1)


ROUTES = [(_tape_values, _eval_values), (_tape_jets, _eval_jets)]


def _assert_same(exprs, coords, points, env, order):
    """Values, shape (E, m), and jet coefficients, shape (ncoeff, E, m), at
    points of shape (nv, E, m): bit for bit, signed zeros too."""
    for tape, each in ROUTES:
        got, want = tape(exprs, coords, points, env, order), each(exprs, coords, points, env, order)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _no_fallback(monkeypatch):
    def fail(*args):
        raise AssertionError("the tape fell back to one _eval walk per expression")

    monkeypatch.setattr(Tape, "_each", fail)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nv=st.integers(1, 3),
    size=st.integers(1, 30),
    m=st.integers(1, 8),
    order=st.integers(0, 4),
)
def test_property_tape_equals_eval_per_expression(seed, nv, size, m, order):
    # up to 30 expressions of 8 columns: groups larger than the product's
    # gather limit are walked in runs, as one expression is
    rng = np.random.default_rng(seed)
    coords = COORDS[:nv]
    exprs = [random_safe_expr(rng, coords, depth=int(rng.integers(0, 4))) for _ in range(size)]
    points = rng.uniform(-0.9, 0.9, (nv, size, m))
    with pytest.MonkeyPatch.context() as mp:
        _no_fallback(mp)
        _assert_same(exprs, coords, points, {}, order)


def test_walk_splits_groups_at_the_gather_limit(monkeypatch):
    # 60 tanh leaves of 5 columns hold 300 values: walked as 38 + 22
    rng = np.random.default_rng(4)
    exprs = [random_safe_expr(rng, ["t"], depth=0) for _ in range(60)]
    points = rng.uniform(-0.9, 0.9, (1, 60, 5))
    _assert_same(exprs, ["t"], points, {}, 4)
    sizes = []
    real = exprlang.jet_apply
    monkeypatch.setattr(exprlang, "jet_apply", lambda name, x: sizes.append(x.coeffs.shape[1]) or real(name, x))
    _tape_jets(exprs, ["t"], points, {}, 4)
    assert sizes == [_GATHER_MAX_ELEMENTS // 5, 60 - _GATHER_MAX_ELEMENTS // 5]


EDGE_CASES = [
    "2.5",  # a constant expression
    "-(1+2)",  # a negated constant
    "-3*t",
    "t^3",  # integer exponents: repeated multiplication
    "(t+2)^-2",
    "t^0",
    "(t+2)^1.5",  # a non-integer exponent: the binomial series
    "2^t",  # a jet exponent on a constant base
    "(t+2)^(x+1)",  # a jet exponent on a jet base
    "2^(0*x+0.5)+t",  # a jet exponent whose derivatives vanish: a value, not a jet, below the root,
    "2^(1*x+0.5)",  # in one group with a moving exponent
    "2-t",  # constant-left - and /
    "2/(t+3)",
    "t/2",
    "C*t+x",  # float parameters
    "t^C",
    "C^t",
    "exp(C)*t-C",
    "x",
    "-x",
]


@pytest.mark.parametrize("order", [1, 2, 4])
def test_edge_cases_equal_eval(order):
    # at order 0 a jet exponent has no derivatives, and ``_eval`` itself
    # cannot raise a grid jet to a grid of constant exponents
    exprs = [parse_expr(text) for text in EDGE_CASES]
    points = np.random.default_rng(2).uniform(0.2, 0.9, (2, len(exprs), 3))
    _assert_same(exprs, ["t", "x"], points, {"C": 0.7}, order)


def test_edge_cases_without_a_vanishing_exponent_need_no_fallback(monkeypatch):
    exprs = [parse_expr(text) for text in EDGE_CASES if "0*x" not in text]
    points = np.random.default_rng(2).uniform(0.2, 0.9, (2, len(exprs), 3))
    _no_fallback(monkeypatch)
    _assert_same(exprs, ["t", "x"], points, {"C": 0.7}, 4)


@pytest.mark.parametrize(
    "text", ["ln(t-5)", "sqrt(x-3)", "1/(t-t)", "(t-3)^0.5", "exp(800*x)", "ln(0-1)+t", "ln(0-1)", "C*t", "t/0"]
)
@pytest.mark.parametrize("tape, each", ROUTES, ids=["values", "jets"])
def test_a_forest_raises_the_error_eval_raises(text, tape, each):
    # the first failing expression in forest order, with its message and span
    exprs = [parse_expr("sin(t)+x"), parse_expr(text), parse_expr("ln(t-9)")]
    points = np.random.default_rng(3).uniform(0.2, 0.9, (2, 3, 4))
    raised = []
    for walk in (tape, each):
        with pytest.raises(ExprEvalError) as err:
            walk(exprs, ["t", "x"], points, {}, 3)
        raised.append((str(err.value), err.value.span))
    assert raised[0] == raised[1] and raised[0][1] != (0, 0)


def test_tape_walk_calls_no_eval_on_folded_constants(monkeypatch):
    rng = np.random.default_rng(8)
    exprs = [random_safe_expr(rng, COORDS, depth=3) for _ in range(12)]
    tape = Tape(exprs, COORDS)

    def fail(*args):
        raise AssertionError("a constant was folded at run time")

    monkeypatch.setattr(exprlang, "_eval", fail)
    points = rng.uniform(-0.9, 0.9, (3, 12, 13))
    tape.run(dict(zip(COORDS, points)))
    tape.run(coordinate_seeds(COORDS, list(points), {}, 4))
