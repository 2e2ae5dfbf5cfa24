"""The batched FD oracle: one stencil evaluation and one telescope jet per call."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cottonkit import jets, suite
from cottonkit.exprlang import eval_array, eval_jet
from cottonkit.jets import jet_extract
from cottonkit.oracles import fd_partial, random_safe_expr
from fd_oracles import check_jets_fd_per_expression, fd_partial_telescoped, random_safe_expr_text

COORDS = ["t", "x", "y"]
ALPHAS = [a for a in product(range(5), repeat=3) if sum(a) <= 4]


def _case(seed=3):
    rng = np.random.default_rng(seed)
    expr = random_safe_expr(rng, COORDS, depth=3)
    return expr, tuple(rng.uniform(-0.8, 0.8, 3))


def _counted(expr, calls):
    def f(q):
        calls.append(q.shape)
        return eval_array(expr, {c: q[:, k] for k, c in enumerate(COORDS)})

    return f


def test_fd_partial_batch_equals_one_call_per_alpha_and_calls_f_once():
    expr, point = _case()
    calls = []
    batch = fd_partial(_counted(expr, calls), point, ALPHAS)
    assert len(calls) == 1 and calls[0][1] == 3
    # a stencil point shared by several alphas is evaluated once (a nested
    # central difference visits 2^|alpha| points at each of h and h/2)
    assert calls[0][0] < sum(2 * 2 ** sum(a) for a in ALPHAS)
    alone = [fd_partial(_counted(expr, []), point, [a])[0] for a in ALPHAS]
    np.testing.assert_array_equal(batch, alone)


def test_fd_partial_telescoped_batch_equals_one_call_per_alpha():
    expr, point = _case()
    high = [a for a in ALPHAS if sum(a) >= 3]
    batch = fd_partial_telescoped(expr, COORDS, point, high, step=1e-3)
    alone = [fd_partial_telescoped(expr, COORDS, point, [a], step=1e-3)[0] for a in high]
    np.testing.assert_array_equal(batch, alone)


def test_every_fd_partial_to_order_four_agrees_with_the_jet():
    expr, point = _case()
    j = eval_jet(expr, COORDS, point, {}, 4)
    low = [a for a in ALPHAS if sum(a) <= 2]
    high = [a for a in ALPHAS if sum(a) > 2]
    want = np.concatenate([
        fd_partial(_counted(expr, []), point, low, step=1e-3),
        fd_partial_telescoped(expr, COORDS, point, high, step=1e-3),
    ])
    got = np.array([float(jet_extract(j, a)) for a in low + high])
    resid = np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want)))
    assert np.all(resid < 1e-7), (low + high)[int(np.argmax(resid))]


def test_fd_partial_steps_grow_with_order_when_step_is_none():
    # one batch mixes lattices of three steps; each alpha keeps its own
    expr, point = _case()
    f = _counted(expr, [])
    mixed = [(1, 0, 0), (0, 2, 1), (2, 1, 1), (0, 1, 0)]
    batch = fd_partial(f, point, mixed)
    alone = [fd_partial(f, point, [a], step={1: 1e-3, 3: 5e-3, 4: 2e-2}[sum(a)])[0] for a in mixed]
    np.testing.assert_array_equal(batch, alone)


# -- references: the text generator and one walk per expression --------------------


def test_tree_generator_equals_the_parsed_text_generator():
    # 10^4 draws from one stream each: equal trees, and the streams stay in step
    fast, text = np.random.default_rng(29), np.random.default_rng(29)
    for _ in range(10_000):
        nv, depth = int(fast.integers(1, 4)), int(fast.integers(0, 4))
        text.integers(1, 4), text.integers(0, 4)
        coords = COORDS[:nv]
        assert random_safe_expr(fast, coords, depth) == random_safe_expr_text(text, coords, depth)
    assert fast.random() == text.random()


def test_jets_fd_equals_one_walk_per_expression():
    report = suite.check_jets_fd(n=100)
    worst, details = check_jets_fd_per_expression(n=100)
    assert report.max_residual == worst and report.details == details


def test_jets_fd_reports_the_first_nan_as_the_loop_does(monkeypatch):
    # tapes finish out of draw order; the worst is still the loop's first NaN
    real = jets._FUNCTIONS["tanh"]

    def nan_above(v, n):
        c = real.coeffs(v, n)
        if n >= 2:
            c[2] = np.where(v > 0.5, np.nan, c[2])
        return c

    monkeypatch.setitem(jets._FUNCTIONS, "tanh", real._replace(coeffs=nan_above))
    report = suite.check_jets_fd(n=100)
    worst, details = check_jets_fd_per_expression(n=100)
    assert math.isnan(report.max_residual) and math.isnan(worst) and report.details == details


# -- negative controls and exactness ----------------------------------------------


def _tanh_rule_wrong_at(monkeypatch, k, rel=1e-4):
    """tanh's jet rule with only its order-k Taylor coefficient scaled by
    1 + rel; every random composition has tanh at its leaves."""
    real = jets._FUNCTIONS["tanh"]

    def wrong(v, n):
        c = real.coeffs(v, n)
        if n >= k:
            c[k] = c[k] * (1.0 + rel)
        return c

    monkeypatch.setitem(jets._FUNCTIONS, "tanh", real._replace(coeffs=wrong))


def test_jets_fd_passes_on_the_true_rules():
    assert suite.check_jets_fd(n=40).passed


@pytest.mark.parametrize("k", [1, 2])
def test_jets_fd_fails_on_a_rule_wrong_below_order_three(monkeypatch, k):
    # the value route (fd_partial) sees the error in the jet's own column
    _tanh_rule_wrong_at(monkeypatch, k)
    assert not suite.check_jets_fd(n=40).passed


@pytest.mark.parametrize("k", [3, 4])
def test_jets_fd_fails_on_a_rule_wrong_at_order_three_or_four(monkeypatch, k):
    # the telescope differences exact lower partials, which the error misses
    _tanh_rule_wrong_at(monkeypatch, k)
    assert not suite.check_jets_fd(n=40).passed


@settings(max_examples=60, deadline=None)
@given(
    nv=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_partial_is_exact_on_quartic_polynomials(nv, seed):
    # nested central differences at h and h/2 leave only even-power errors
    # with at least five derivatives of f after the Richardson step, and a
    # quartic has none: what is left is rounding, about eps / h^|alpha|
    rng = np.random.default_rng(seed)
    betas = [b for b in product(range(5), repeat=nv) if sum(b) <= 4]
    coeffs = rng.uniform(-1.0, 1.0, len(betas))
    point = rng.uniform(-1.0, 1.0, nv)

    def poly(q):
        return sum(c * np.prod(q ** np.array(b), axis=-1) for c, b in zip(coeffs, betas))

    def partial(alpha):
        total = 0.0
        for c, b in zip(coeffs, betas):
            if all(x >= a for x, a in zip(b, alpha)):
                falling = np.prod([math.perm(x, a) for x, a in zip(b, alpha)])
                total += c * falling * np.prod(point ** (np.array(b) - alpha))
        return total

    alphas = [a for a in product(range(3), repeat=nv) if sum(a) <= 2]
    got = fd_partial(poly, point, alphas, step=1e-3)
    # in units of eps * sum |c| (about max |f| on the stencil): 1,500 seeded cases reach 2.9
    scale = np.finfo(float).eps * np.sum(np.abs(coeffs))
    for alpha, value in zip(alphas, got):
        assert abs(value - partial(alpha)) <= 16 * scale / 1e-3 ** sum(alpha)
