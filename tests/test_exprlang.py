import numpy as np
import pytest

from cottonkit.exprlang import (
    BinOp,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    eval_array,
    eval_jet,
    free_symbols,
    parse_expr,
    substitute,
    to_text,
    validate_symbols,
)
from cottonkit.jets import jet_extract
from cottonkit.oracles import random_safe_expr


def test_parse_structure_division_over_product():
    e = parse_expr("2/(C*t^2)")
    assert isinstance(e, BinOp) and e.op == "/"
    assert isinstance(e.left, Num) and e.left.value == 2.0
    assert isinstance(e.right, BinOp) and e.right.op == "*"
    assert isinstance(e.right.right, BinOp) and e.right.right.op == "^"


def test_parse_and_evaluate_kink_profile():
    e = parse_expr("sqrt(C)*tanh(sqrt(C)/2*x)")
    assert eval_array(e, {"C": 4.0, "x": 0.0}) == 0.0


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("2/(")
    assert err.value.position == 4


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2x")


def test_unbalanced_paren_and_trailing_token():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1+2)")


def test_power_binds_tighter_than_unary_minus():
    e = parse_expr("-x^2")
    assert isinstance(e, Neg)
    assert eval_array(e, {"x": 3.0}) == -9.0


def test_power_right_associative():
    assert eval_array(parse_expr("2^3^2"), {}) == 512.0
    assert eval_array(parse_expr("(2^3)^2"), {}) == 64.0


def test_negative_exponent_parses():
    assert eval_array(parse_expr("2^-2"), {}) == 0.25


def test_precedence_standard():
    assert eval_array(parse_expr("2+3*4"), {}) == 14.0
    assert eval_array(parse_expr("2*3-4/2"), {}) == 4.0


def test_eval_jet_examples():
    j = eval_jet(parse_expr("2/(C*t^2)"), ["t"], [1.0], {"C": 2.0}, 0)
    assert j.value == pytest.approx(1.0)

    j = eval_jet(parse_expr("tanh(x)"), ["x"], [0.0], {}, 3)
    assert [float(jet_extract(j, (k,))) for k in range(4)] == pytest.approx([0, 1, 0, -2])

    j = eval_jet(parse_expr("1/cosh(sqrt(C)/2*x)^4"), ["x"], [0.0], {"C": 1.0}, 2)
    assert float(jet_extract(j, (0,))) == pytest.approx(1.0)
    assert float(jet_extract(j, (1,))) == pytest.approx(0.0, abs=1e-15)


def test_eval_jet_order_zero_matches_plain_eval():
    rng = np.random.default_rng(9)
    for _ in range(100):
        coords = ["t", "x", "y"][: int(rng.integers(1, 4))]
        e = random_safe_expr(rng, coords)
        pt = rng.uniform(-0.9, 0.9, len(coords))
        plain = eval_array(e, dict(zip(coords, pt)))
        jet = eval_jet(e, coords, pt, {}, 0).value
        assert abs(plain - jet) <= 1e-15 * (1.0 + abs(plain))


def test_roundtrip_fixed_point_on_200_expressions():
    rng = np.random.default_rng(23)
    for _ in range(200):
        e = random_safe_expr(rng, ["t", "x", "y"][: int(rng.integers(1, 4))], depth=3)
        s1 = to_text(e)
        s2 = to_text(parse_expr(s1))
        assert s1 == s2
        assert to_text(parse_expr(s2)) == s2


def test_roundtrip_preserves_structure():
    cases = ["-x^2", "(-x)^2", "a-(b-c)", "a-b-c", "a/(b*c)", "a/b*c",
             "-(a+b)", "-a*b", "a^b^c", "(a^b)^c", "a^(b*c)", "tanh(x)^2"]
    for s in cases:
        e = parse_expr(s)
        assert parse_expr(to_text(e)) == e


def test_unresolved_symbol_reports_name():
    e = parse_expr("C*x")
    with pytest.raises(ExprEvalError) as err:
        eval_array(e, {"x": 1.0})
    assert "C" in str(err.value)
    with pytest.raises(ExprEvalError):
        validate_symbols(e, {"x"})
    validate_symbols(e, {"x", "C"})


def test_unknown_function_rejected_by_validation():
    e = parse_expr("foo(x)")
    with pytest.raises(ExprEvalError):
        validate_symbols(e, {"x"})


def test_domain_error_carries_source_span():
    e = parse_expr("1+sqrt(x-4)")
    with pytest.raises(ExprEvalError) as err:
        eval_jet(e, ["x"], [0.0], {}, 2)
    # the offending sub-expression starts at the sqrt call, character 3
    assert err.value.span[0] == 3


@pytest.mark.parametrize("text, x", [("(0-8)^(1/3)", 0.5), ("ln(x)", -1.0), ("sqrt(x)", 0.0), ("1/x", 0.0), ("x^-1", 0.0)])
def test_domain_rules_agree_across_evaluators(text, x):
    """Outside the jets.py domain every evaluator raises with the same span:
    as values (scalar or array), as jets of a coordinate, and folded as a
    constant parameter."""
    e = parse_expr(text)
    attempts = {
        "scalar": lambda: eval_array(e, {"x": x}),
        "array": lambda: eval_array(e, {"x": np.array([1.0, x])}),
        "coordinate": lambda: eval_jet(e, ["x"], [x], {}, 2),
        "constant": lambda: eval_jet(e, ["t"], [0.3], {"x": x}, 2),
    }
    for how, attempt in attempts.items():
        with pytest.raises(ExprEvalError) as err:
            attempt()
        assert err.value.span == e.span, how


def test_free_symbols_and_substitute():
    e = parse_expr("sqrt(C)*tanh(x/2)")
    assert free_symbols(e) == {"C", "x"}
    sub = substitute(e, {"x": parse_expr("2*u")})
    assert free_symbols(sub) == {"C", "u"}
    assert eval_array(sub, {"C": 4.0, "u": 0.5}) == pytest.approx(
        eval_array(e, {"C": 4.0, "x": 1.0})
    )


def test_eval_array_vectorizes():
    e = parse_expr("sin(t)*x^2")
    t = np.linspace(0, 1, 7)
    x = np.linspace(1, 2, 7)
    got = eval_array(e, {"t": t, "x": x})
    np.testing.assert_allclose(got, np.sin(t) * x ** 2)


def test_jet_valued_power_with_variable_exponent():
    # x^y via exp(y ln x): smooth branch for positive base
    e = parse_expr("x^y")
    j = eval_jet(e, ["x", "y"], [2.0, 1.5], {}, 1)
    assert j.value == pytest.approx(2.0 ** 1.5)
    assert float(jet_extract(j, (1, 0))) == pytest.approx(1.5 * 2.0 ** 0.5)
    assert float(jet_extract(j, (0, 1))) == pytest.approx(np.log(2.0) * 2.0 ** 1.5)


def test_scientific_notation_literals():
    assert eval_array(parse_expr("1.5e-3"), {}) == pytest.approx(1.5e-3)
    assert eval_array(parse_expr("2E2"), {}) == 200.0
    assert eval_array(parse_expr("x^2.5"), {"x": 4.0}) == pytest.approx(32.0)
