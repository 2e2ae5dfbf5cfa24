import math
import re
import warnings

import numpy as np
import pytest

from cottonkit import jets
from cottonkit.exprlang import ExprEvalError, _expr_jet, eval_array, eval_jet, parse_expr
from cottonkit.jets import (
    Jet,
    JetDomainError,
    JetSpace,
    _divide,
    jet_apply,
    jet_divide,
    jet_constant,
    jet_extract,
    jet_pow,
    jet_var,
    partials,
    tensor_mul,
)
from cottonkit.oracles import fd_partial, random_safe_expr
from fd_oracles import tensor_mul_pairs

LAYOUTS = [(nv, order) for nv in (1, 2, 3) for order in range(5)]
# the crossover of JetSpace.mul_coeffs sits between (8,) and (343,)
SHAPES = [(), (8,), (343,), (3, 3, 343)]


def derivs(j, upto):
    return [float(jet_extract(j, (k,))) for k in range(upto + 1)]


def test_jet_var_seeds_value_and_unit_derivative():
    j = jet_var(0, 2.0, 2, 4)
    assert j.value == 2.0
    assert jet_extract(j, (1, 0)) == 1.0
    assert jet_extract(j, (0, 1)) == 0.0
    assert jet_extract(j, (2, 0)) == 0.0

    j2 = jet_var(1, 0.0, 3, 4)
    assert j2.value == 0.0
    assert jet_extract(j2, (0, 1, 0)) == 1.0


def test_constant_lift_has_zero_derivatives():
    c = jet_constant(5.0, 2, 3)
    assert c.value == 5.0
    assert all(x == 0.0 for x in c.coeffs[1:])


def test_coefficient_count_matches_layout():
    for nv in (1, 2, 3):
        for order in range(5):
            sp = JetSpace.get(nv, order)
            assert sp.ncoeff == math.comb(nv + order, order)


def test_var_index_out_of_range():
    with pytest.raises(IndexError):
        jet_var(2, 0.0, 2, 3)


def test_tanh_jet_at_zero_matches_finite_differences():
    j = jet_apply("tanh", jet_var(0, 0.0, 1, 3))
    np.testing.assert_allclose(j.coeffs, [0.0, 1.0, 0.0, -1.0 / 3.0], atol=1e-15)
    got = derivs(j, 3)
    for k in range(4):
        want = fd_partial(lambda p: np.tanh(p[:, 0]), (0.0,), [(k,)], step=1e-3 if k < 3 else 5e-3)[0]
        assert abs(got[k] - want) < 1e-8


def test_exp_of_zero_constant_is_one():
    j = jet_apply("exp", jet_constant(0.0, 2, 4))
    assert j.value == 1.0
    assert np.all(j.coeffs[1:] == 0.0)


def test_sqrt_of_square_recovers_identity():
    x = jet_var(0, 2.0, 1, 4)
    s = jet_apply("sqrt", x * x)
    got = derivs(s, 2)
    assert got[0] == pytest.approx(2.0, abs=1e-14)
    assert got[1] == pytest.approx(1.0, abs=1e-14)
    assert got[2] == pytest.approx(0.0, abs=1e-14)


def test_extract_examples():
    t = jet_var(0, 1.0, 1, 4)
    cube = t * t * t
    assert jet_extract(cube, (0,)) == pytest.approx(1.0)
    assert jet_extract(cube, (2,)) == pytest.approx(6.0)

    t2 = jet_var(0, 0.37, 2, 4)
    x2 = jet_var(1, -1.4, 2, 4)
    assert jet_extract(t2 * x2, (1, 1)) == pytest.approx(1.0, abs=1e-15)


def test_extract_rejects_excess_order():
    j = jet_var(0, 1.0, 1, 2)
    with pytest.raises(ValueError):
        jet_extract(j, (3,))


def test_domain_errors_name_function_and_value():
    with pytest.raises(JetDomainError) as err:
        jet_apply("sqrt", jet_constant(-2.0, 1, 2))
    assert "sqrt" in str(err.value) and "-2" in str(err.value)
    with pytest.raises(JetDomainError):
        jet_apply("ln", jet_var(0, 0.0, 1, 2))


def test_product_rule_on_random_polynomials():
    # coefficients of a product must be the truncated convolution
    rng = np.random.default_rng(3)
    sp = JetSpace.get(3, 4)
    for _ in range(50):
        a = Jet(sp, rng.normal(size=sp.ncoeff))
        b = Jet(sp, rng.normal(size=sp.ncoeff))
        prod = a * b
        want = np.zeros(sp.ncoeff)
        for i, ai in enumerate(sp.alphas):
            for j, aj in enumerate(sp.alphas):
                if sum(ai) + sum(aj) <= 4:
                    k = sp.index[tuple(x + y for x, y in zip(ai, aj))]
                    want[k] += a.coeffs[i] * b.coeffs[j]
        np.testing.assert_allclose(prod.coeffs, want, rtol=1e-14, atol=1e-14)


def test_division_roundtrip():
    rng = np.random.default_rng(4)
    sp = JetSpace.get(2, 4)
    for _ in range(100):
        f = Jet(sp, rng.normal(size=sp.ncoeff))
        g = Jet(sp, rng.normal(size=sp.ncoeff))
        if abs(g.value) < 1e-6:
            continue
        q = f / g
        back = q * g
        # error scales with the magnitudes actually multiplied back together
        scale = (1.0 + np.max(np.abs(q.coeffs))) * (1.0 + np.max(np.abs(g.coeffs)))
        assert np.max(np.abs(back.coeffs - f.coeffs)) / scale < 1e-13


def test_integer_pow_handles_negative_base():
    j = jet_var(0, -1.5, 1, 3)
    cubed = jet_pow(j, 3)
    assert cubed.value == pytest.approx((-1.5) ** 3)
    inv2 = jet_pow(j, -2)
    assert inv2.value == pytest.approx((-1.5) ** -2)


def test_real_pow_requires_positive_base():
    with pytest.raises(JetDomainError):
        jet_pow(jet_var(0, -2.0, 1, 2), 0.5)
    with pytest.raises(JetDomainError) as err:
        jet_pow(jet_var(0, np.array([1.0, 0.0]), 1, 2), 0.5)
    assert err.value.func == "pow"


def test_real_pow_matches_sqrt():
    j = jet_var(0, 1.7, 1, 4) + 0.3
    a = jet_pow(j, 0.5)
    b = jet_apply("sqrt", j)
    np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-13)


def test_derivative_shift_matches_analytic():
    t = jet_var(0, 0.8, 2, 4)
    x = jet_var(1, -0.3, 2, 4)
    f = jet_apply("sin", t * x)
    df = f.derivative(0)
    # d/dt sin(t x) = x cos(t x)
    want = jet_apply("cos", (t * x).truncated(3)) * x.truncated(3)
    np.testing.assert_allclose(df.coeffs, want.coeffs, rtol=1e-13, atol=1e-14)


def test_batched_coefficients_match_scalar_loop():
    vals = np.linspace(0.2, 1.4, 17)
    jb = jet_apply("tanh", jet_var(0, vals, 2, 3) * 0.7 + 0.1)
    for k, v in enumerate(vals):
        js = jet_apply("tanh", jet_var(0, float(v), 2, 3) * 0.7 + 0.1)
        np.testing.assert_allclose(jb.coeffs[:, k], js.coeffs, rtol=1e-15)


def test_mixed_order_arithmetic_truncates():
    a = jet_var(0, 1.0, 1, 4)
    b = jet_var(0, 1.0, 1, 2)
    assert (a * b).order == 2
    assert (a + b).order == 2


@pytest.mark.parametrize("fn,ref", [
    ("exp", math.exp), ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh), ("tanh", math.tanh),
    ("arctan", math.atan),
])
def test_chain_rule_spot_checks(fn, ref):
    pt = 0.37
    j = jet_apply(fn, jet_var(0, pt, 1, 4))
    for k in range(3):
        want = fd_partial(lambda p: np.array([ref(x) for x in p[:, 0]]), (pt,), [(k,)], step=1e-3)[0]
        assert abs(float(jet_extract(j, (k,))) - want) < 1e-7


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        jet_var(0, 0.0, 1, 5)
    with pytest.raises(ValueError):
        jet_var(0, 0.0, 4, 2)


def _random_jets(sp, shape, rng):
    """Random coefficients with a divisor value of magnitude 0.5 to 2."""
    a = rng.normal(size=(sp.ncoeff,) + shape)
    b = rng.normal(size=(sp.ncoeff,) + shape)
    b[0] = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    return a, b


def _pair_sum(sp, a, b):
    """The truncated Cauchy product, one coefficient pair at a time."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k, i, j in zip(np.repeat(np.arange(sp.ncoeff), np.diff(np.append(sp._mul_starts, len(sp._mul_i)))),
                       sp._mul_i, sp._mul_j):
        out[k] += a[i] * b[j]
    return out


@pytest.mark.parametrize("nv, order", LAYOUTS)
def test_mul_gather_and_shift_paths_agree(nv, order, monkeypatch):
    """Both product paths, on both sides of the crossover, agree with the
    pairwise sum to rounding: the error bound is the sum of |terms|."""
    sp = JetSpace.get(nv, order)
    rng = np.random.default_rng(100 * nv + order)
    edge = jets._GATHER_MAX_ELEMENTS
    for shape in SHAPES + [(edge,), (edge + 1,)]:
        a, b = _random_jets(sp, shape, rng)
        bound = 1e-14 * _pair_sum(sp, np.abs(a), np.abs(b))
        want = _pair_sum(sp, a, b)
        default = sp.mul_coeffs(a, b)
        monkeypatch.setattr(jets, "_GATHER_MAX_ELEMENTS", 0)
        shifted = sp.mul_coeffs(a, b)
        monkeypatch.setattr(jets, "_GATHER_MAX_ELEMENTS", 10**9)
        gathered = sp.mul_coeffs(a, b)
        monkeypatch.setattr(jets, "_GATHER_MAX_ELEMENTS", edge)
        assert default.shape == shifted.shape == gathered.shape == (sp.ncoeff,) + shape
        for got in (default, shifted, gathered):
            assert np.all(np.abs(got - want) <= bound), shape


@pytest.mark.parametrize("nv, order", LAYOUTS)
def test_division_and_reciprocal_roundtrip(nv, order):
    """(a / b) b = a and b (1 / b) = e_0 to rounding, on every layout and
    coefficient shape."""
    sp = JetSpace.get(nv, order)
    rng = np.random.default_rng(200 + 10 * nv + order)
    e0 = np.zeros(sp.ncoeff)
    e0[0] = 1.0
    for shape in SHAPES:
        a, b = (Jet(sp, c) for c in _random_jets(sp, shape, rng))
        q, r = a / b, 1.0 / b
        scale = (1.0 + np.max(np.abs(q.coeffs), axis=0)) * (1.0 + np.max(np.abs(b.coeffs), axis=0))
        assert np.all(np.abs((q * b).coeffs - a.coeffs) <= 1e-13 * scale), shape
        scale = (1.0 + np.max(np.abs(r.coeffs), axis=0)) * (1.0 + np.max(np.abs(b.coeffs), axis=0))
        assert np.all(np.abs((b * r).coeffs - e0.reshape((-1,) + (1,) * len(shape))) <= 1e-13 * scale), shape


def _newton_reciprocal(b: Jet) -> Jet:
    """The reciprocal by Newton steps at full order, each doubling the
    correct truncation degree: the recurrence's independent reference."""
    inv = jet_constant(1.0 / b.coeffs[0], b.num_vars, b.order)
    for _ in range(math.ceil(math.log2(b.order + 1)) if b.order else 0):
        inv = inv * (2.0 - b * inv)
    return inv


@pytest.mark.parametrize("nv, order", LAYOUTS)
def test_divide_matches_newton_reciprocal(nv, order):
    sp = JetSpace.get(nv, order)
    rng = np.random.default_rng(300 + 10 * nv + order)
    for shape in SHAPES:
        a, b = (Jet(sp, c) for c in _random_jets(sp, shape, rng))
        newton = _newton_reciprocal(b)
        for got, want in ((_divide(None, b), newton), (_divide(a.coeffs, b), a * newton)):
            scale = np.max(np.abs(want.coeffs), axis=0)
            assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-13 * scale), shape


def test_division_reads_every_coefficient_degree_by_degree():
    """1 / (1 - x) = sum x^k and (1 + x y) / (1 - x) in two variables: the
    recurrence gives the exact coefficients of a known series."""
    x = jet_var(0, 0.0, 1, 4)
    np.testing.assert_array_equal((1.0 / (1.0 - x)).coeffs, np.ones(5))
    x, y = jet_var(0, 0.0, 2, 3), jet_var(1, 0.0, 2, 3)
    got = (1.0 + x * y) / (1.0 - x)
    sp = got.space
    want = np.zeros(sp.ncoeff)
    for k, (p, q) in enumerate(sp.alphas):
        want[k] = 1.0 if q == 0 else (1.0 if q == 1 and p >= 1 else 0.0)
    np.testing.assert_array_equal(got.coeffs, want)


def test_zero_divisor_at_one_grid_point_raises():
    vals = np.linspace(-1.0, 1.0, 9)  # 0.0 at index 4
    b = jet_var(0, vals, 2, 3)
    a = jet_var(1, vals + 2.0, 2, 3)
    for attempt in (
        lambda: a / b, lambda: 1.0 / b, lambda: _divide(None, b), lambda: jet_pow(b, -2),
        lambda: a / 0.0, lambda: jet_divide(2.0, 0.0),  # a zero value divides as a zero jet does
    ):
        with pytest.raises(JetDomainError) as err:
            attempt()
        assert err.value.func == "reciprocal"
    e = parse_expr("2+exp(x)/(y-1)")
    bindings = {"x": a, "y": b + 1.0}
    with pytest.raises(ExprEvalError) as err:
        _expr_jet(e, bindings)
    # the span of the division, the rule every evaluator shares
    assert "division by zero" in str(err.value) and err.value.span == e.right.span


def test_entry_points_give_the_numpy_value_on_values():
    """On floats and arrays, jet_apply is the table's numpy function and
    jet_pow and jet_divide are ``**`` and ``/``, bit for bit."""
    vals = np.linspace(0.1, 3.0, 7)
    for fn in sorted(jets.FUNCTION_NAMES):
        values = jets._FUNCTIONS[fn].values
        assert jet_apply(fn, 0.7) == values(0.7), fn
        assert jet_apply(fn, vals).tobytes() == values(vals).tobytes(), fn
    assert jet_pow(0.7, 1.3) == 0.7**1.3 and jet_pow(vals, 3.0).tobytes() == (vals**3.0).tobytes()
    assert jet_divide(1.0, 0.3) == 1.0 / 0.3 and jet_divide(1.0, vals).tobytes() == (1.0 / vals).tobytes()


def test_real_pow_value_is_the_value_walkers_power():
    """A non-integer power's value is v**e, as eval_array computes it: at
    seed 13901 the jet used to sit 5.6e-14 (256 ulp) off near a root of cos."""
    rng = np.random.default_rng(13901)
    coords = ["t", "x", "y"]
    e = random_safe_expr(rng, coords, depth=3)
    pt = rng.uniform(-0.9, 0.9, 3)
    plain = float(eval_array(e, dict(zip(coords, pt))))
    for order in range(5):
        jet = float(eval_jet(e, coords, pt, {}, order).value)
        assert abs(jet - plain) <= 4 * np.spacing(abs(plain)), order


def test_real_pow_series_matches_exp_ln():
    """The binomial series agrees with exp(e ln a) to rounding, at one point
    and on a grid."""
    vals = np.linspace(0.3, 2.5, 11)
    for e in (0.5, 1.7, -2.3):
        for v in (1.3, vals):
            j = jet_apply("sin", jet_var(0, v, 2, 4)) * 0.2 + jet_var(1, v, 2, 4)
            got = jet_pow(j, e)
            want = jet_apply("exp", jet_apply("ln", j) * e)
            np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13, atol=1e-13)


def _full_order_horner(j, series):
    """Horner's rule with every step a full-order product."""
    du = Jet(j.space, j.coeffs.copy())
    du.coeffs[0] = 0.0
    acc = series[j.order]
    for k in range(j.order - 1, -1, -1):
        acc = du * acc + series[k]
    return acc if isinstance(acc, Jet) else jet_constant(acc, j.num_vars, j.order)


@pytest.mark.parametrize("shape", [(), (8,), (343,)])
@pytest.mark.parametrize("nv, order", LAYOUTS)
def test_compose_bit_equal_full_order_horner(nv, order, shape, monkeypatch):
    """Each Horner step at its own order sums the same terms in the same
    order as a full-order step, on both sides of the product crossover."""
    seen = []
    compose = Jet.compose_univariate
    monkeypatch.setattr(Jet, "compose_univariate", lambda j, s: seen.append(s) or compose(j, s))
    sp = JetSpace.get(nv, order)
    rng = np.random.default_rng(100 * nv + 10 * order + len(shape))
    j = Jet(sp, rng.normal(size=(sp.ncoeff,) + shape))
    j.coeffs[0] = rng.uniform(0.5, 1.5, shape)  # in every function's domain
    for fn in sorted(jets.FUNCTION_NAMES) + ["pow"]:
        got = jet_pow(j, 1.7) if fn == "pow" else jet_apply(fn, j)
        want = _full_order_horner(j, seen[-1])
        assert got.coeffs.shape == want.coeffs.shape, fn
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), fn


# -- numpy operands on the left, power guards, arctan at large values ----------------


@pytest.mark.parametrize("left", [np.array([2.0, 3.0]), np.float64(2.5)], ids=["array", "numpy-scalar"])
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_numpy_left_operand_defers_to_the_jet(left, op):
    # numpy would otherwise map the operator over the jet as an object array
    j = jet_var(0, np.array([0.1, 0.2]), 1, 2)
    got = {"+": lambda: left + j, "-": lambda: left - j, "*": lambda: left * j, "/": lambda: left / j}[op]()
    want = {"+": j.__radd__, "-": j.__rsub__, "*": j.__rmul__, "/": j.__rtruediv__}[op](left)
    assert isinstance(got, Jet)
    np.testing.assert_array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize(
    "text, x, message",
    [
        ("x^-1", 0.0, "division by zero"),
        ("x^0.5", -1.0, "pow applied outside its domain (value -1.0)"),
        ("x^513", -2.0, "pow applied outside its domain (value -2.0)"),
    ],
)
def test_power_rules_without_the_constant_integer_exemption(text, x, message):
    # 0^-1, (-1)^0.5 and (-2)^513 raise on values and jets as they always did
    e = parse_expr(text)
    for attempt in (lambda: eval_array(e, {"x": x}), lambda: eval_jet(e, ["x"], [x], {}, 2)):
        with pytest.raises(ExprEvalError, match=re.escape(f"{message} (at characters 1..")):
            attempt()


def test_constant_integer_power_takes_any_base_unguarded():
    base = np.array([-0.5, 0.0, 0.3])
    np.testing.assert_array_equal(jet_pow(base, 2.0), base**2.0)
    j = jet_pow(jet_var(0, base, 1, 3), 3.0)
    x = jet_var(0, base, 1, 3)
    np.testing.assert_array_equal(j.coeffs, (x * x * x).coeffs)


def _guarded_power(base, exponent):
    """``jets._power`` behind the negative-base guards it ran before
    constant integer exponents in 0..512 skipped them."""
    v = jets._value(base)
    e = exponent.coeffs[0] if isinstance(exponent, Jet) else exponent
    if jets._any(v <= 0.0):
        if np.any((v <= 0.0) & ~np.asarray(jets._integer_exponent(e))):
            jets._require_positive("pow", v)
        jets._require_nonzero_divisor((v == 0.0) & (e < 0.0))
    return _power(base, exponent)


_power = jets._power


def test_lift_csv_is_the_same_with_the_old_power_guards(tmp_path, monkeypatch):
    from cottonkit.cli import main

    args = ["lift", "--potential", "(phi^2-1)^4/4", "--vacua=-1,1", "--xmax", "20", "--n", "101", "--out"]
    assert main(args + [str(tmp_path / "new.csv")]) == 0
    monkeypatch.setattr(jets, "_power", _guarded_power)
    assert main(args + [str(tmp_path / "old.csv")]) == 0
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_arctan_value_jet_does_not_overflow():
    # 1 + v^2 enters only the derivative coefficients
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = eval_jet(parse_expr("arctan(x)"), ["x"], [1e200], {}, 0)
    assert j.coeffs[0] == np.arctan(1e200)


@pytest.mark.parametrize(
    "text, order", [("t^(x+1)", 0), ("t^(2*x-3.5)", 0), ("(t+2)^(0*x)", 2), ("(t+1)^(0*x-0.5)", 2), ("t^(0*x+1.5)", 4)]
)
def test_power_with_a_grid_of_constant_jet_exponents(text, order):
    # a jet exponent with no nonzero derivative coefficient is a constant per
    # point; on a grid those constants differ, and each point takes its own power
    e = parse_expr(text)
    t, x = np.array([0.3, 0.4, 0.3]), np.array([0.5, 0.6, 0.5])
    j = eval_jet(e, ["t", "x"], [t, x], {}, order)
    assert j.value.tobytes() == eval_array(e, {"t": t, "x": x}).tobytes()
    for k in range(len(t)):
        own = eval_jet(e, ["t", "x"], [float(t[k]), float(x[k])], {}, order)
        np.testing.assert_allclose(j.coeffs[:, k], own.coeffs, rtol=1e-14, atol=1e-15)


_TENSOR_SPECS = [
    "kl...,lij...->kij...",
    "rml...,lns...->rsmn...",
    "lmk...,kls...->sm...",
    "is...,sj...->ij...",
    "sm...,sm...->...",
    "...,ij...->ij...",
    "ij...,kl...->ijkl...",
]


@pytest.mark.parametrize("grid", [(), (1,), (8,), (9,), (27,), (343,)], ids=lambda g: f"{math.prod(g)}pts")
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("nv", [2, 3])
def test_tensor_mul_equals_pair_loop_bit_for_bit(nv, order, grid):
    """Both paths of the tensor product, on operands of equal and unequal
    order, form the terms of one einsum per pair bit for bit; the shift path
    adds them in increasing first factor, the gather path sums them by
    reduceat, which associates three or more terms differently."""
    rng = np.random.default_rng(100 * nv + 10 * order + len(grid))
    gather = math.prod(grid) <= 8
    assert gather == (math.prod(grid) <= jets._GATHER_MAX_POINTS)
    for spec in _TENSOR_SPECS:
        sa, sb = spec.split("->")[0].split(",")
        for oa, ob in {(order, order), (order, min(order + 1, 4)), (min(order + 1, 4), order)}:
            A = rng.standard_normal((JetSpace.get(nv, oa).ncoeff,) + (nv,) * len(sa.replace("...", "")) + grid)
            B = rng.standard_normal((JetSpace.get(nv, ob).ncoeff,) + (nv,) * len(sb.replace("...", "")) + grid)
            A[-1] = 0.0  # zero terms, whose products with negative values are -0.0
            got, want = tensor_mul(A, B, spec, nv), tensor_mul_pairs(A, B, spec, nv, reduceat=gather)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (spec, oa, ob)


@pytest.mark.parametrize("grid", [(), (5,), (2, 3)])
@pytest.mark.parametrize("nv, order", [(nv, order) for nv, order in LAYOUTS if order >= 1])
def test_derivative_is_a_column_of_the_partials(nv, order, grid):
    sp = JetSpace.get(nv, order)
    coeffs = np.random.default_rng(10 * nv + order).standard_normal((sp.ncoeff,) + grid)
    every = partials(coeffs, nv)
    assert every.shape == (JetSpace.get(nv, order - 1).ncoeff, nv) + grid
    for v in range(nv):
        d = Jet(sp, coeffs).derivative(v)
        assert d.space is JetSpace.get(nv, order - 1)
        assert d.coeffs.tobytes() == every[:, v].tobytes()
        assert partials(coeffs, nv, v).tobytes() == every[:, v].tobytes()
