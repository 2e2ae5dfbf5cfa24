"""The batched FD oracle: one stencil evaluation and one telescope jet per call."""

from itertools import product

import numpy as np

from cottonkit.exprlang import eval_array, eval_jet
from cottonkit.jets import jet_extract
from cottonkit.oracles import fd_partial, fd_partial_telescoped, random_safe_expr

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
