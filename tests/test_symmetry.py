import numpy as np
import pytest

from cottonkit.catalog import SolutionCase, killing_fields, solution_3d, standard_grid
from cottonkit.exprlang import ExprEvalError
from cottonkit.geometry import GeometryError, flat_metric
from cottonkit.symmetry import (
    VectorFieldSpec,
    closure_residual,
    independence_rank,
    killing_dimension,
    killing_dimension_estimate,
    killing_residual,
    killing_residual_values,
    lie_bracket_at,
)


def case_metric(tag, C=1.0):
    return solution_3d(SolutionCase(tag, -C if tag == "b" else C)).metric


GRID = np.array([(t, x, y) for t in (0.4, 1.5) for x in (0.6, 1.8) for y in (-0.7, 0.9)])


# -- residuals ---------------------------------------------------------------------


def test_translation_along_reduced_coordinate_is_exact():
    for tag in ("a", "b", "c+", "kink+"):
        m = case_metric(tag)
        vals = killing_residual_values(m, VectorFieldSpec.parse(("0", "0", "1")), GRID)
        assert np.max(vals) == 0.0


def test_dilation_on_flat_space_residual_two():
    rep = killing_residual(flat_metric(), VectorFieldSpec.parse(("0", "x", "0")), GRID)
    assert rep.max_residual == pytest.approx(2.0)
    assert not rep.passed


def test_case_c_fields_all_killing():
    case = SolutionCase("c+", 1.0)
    m = solution_3d(case).metric
    for xi in killing_fields(case):
        rep = killing_residual(m, xi, standard_grid(case, 3, n=4))
        assert rep.passed, rep.line()


def test_dimension_mismatch_rejected():
    with pytest.raises(GeometryError):
        killing_residual_values(flat_metric(), VectorFieldSpec.parse(("0", "1")), GRID)


def test_residual_linear_combination_bound():
    from cottonkit.exprlang import BinOp, Num

    case = SolutionCase("c+", 1.0)
    m = solution_3d(case).metric
    fields = killing_fields(case)
    grid = standard_grid(case, 3, n=3)
    a, b = 2.7, -1.3
    combo = VectorFieldSpec(
        tuple(
            BinOp("+", BinOp("*", Num(a), fields[3].components[k]),
                  BinOp("*", Num(b), fields[5].components[k]))
            for k in range(3)
        )
    )
    res_combo = np.max(killing_residual_values(m, combo, grid))
    res_a = np.max(killing_residual_values(m, fields[3], grid))
    res_b = np.max(killing_residual_values(m, fields[5], grid))
    assert res_combo <= abs(a) * res_a + abs(b) * res_b + 1e-12


# -- brackets ----------------------------------------------------------------------


def test_bracket_of_coordinate_fields_vanishes():
    b = lie_bracket_at(
        VectorFieldSpec.parse(("1", "0", "0")), VectorFieldSpec.parse(("0", "0", "1")), (0.3, 0.4, 0.5)
    )
    assert np.max(np.abs(b)) == 0.0


def test_bracket_boost_pair():
    b = lie_bracket_at(
        VectorFieldSpec.parse(("0", "t", "0")), VectorFieldSpec.parse(("x", "0", "0")), (2.0, 3.0, 0.0)
    )
    np.testing.assert_allclose(b, [2.0, -3.0, 0.0], atol=1e-14)


def test_bracket_antisymmetry_exact():
    xi = VectorFieldSpec.parse(("t*x", "sin(y)", "x^2"))
    eta = VectorFieldSpec.parse(("cos(t)", "x*y", "t"))
    p = (0.7, -0.4, 1.2)
    b1 = lie_bracket_at(xi, eta, p)
    b2 = lie_bracket_at(eta, xi, p)
    assert np.max(np.abs(b1 + b2)) == 0.0


def test_jacobi_identity_on_catalog_fields():
    case = SolutionCase("c+", 1.0)
    fields = killing_fields(case)
    env = dict(case.env)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8)]

    def bracket_fn(u, v, p):
        return lie_bracket_at(u, v, p, env=env)

    # numeric Jacobi via nested numeric brackets needs field-valued brackets;
    # restrict to the polynomial triple where the bracket is again expressible
    from cottonkit.exprlang import parse_expr

    X1 = VectorFieldSpec.parse(("1", "0", "0"))
    X3 = VectorFieldSpec.parse(("t", "x", "0"))
    X4 = VectorFieldSpec.parse(("t^2+x^2", "2*t*x", "-2*x/sqrt(C)"))
    b34 = ("t^2+x^2", "2*t*x", "-2*x/sqrt(C)")  # [X3, X4] = X4
    for p in pts:
        j1 = bracket_fn(X1, X4, p)  # components of [X1, X4] = (2t, 2x, 0)
        np.testing.assert_allclose(j1, [2 * p[0], 2 * p[1], 0.0], atol=1e-9)
        j2 = bracket_fn(X3, X4, p)
        want = [
            float(np.asarray(eval_vals(c, p, env))) for c in b34
        ]
        np.testing.assert_allclose(j2, want, atol=1e-9)


def eval_vals(text, p, env):
    from cottonkit.exprlang import eval_array, parse_expr

    return eval_array(parse_expr(text), {"t": p[0], "x": p[1], "y": p[2], **env})


def test_closure_of_case_c_algebra():
    case = SolutionCase("c+", 1.0)
    fields = killing_fields(case)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9), (0.2, 0.6, -0.3), (1.1, 1.8, 0.12)]
    assert closure_residual(fields, pts, env=dict(case.env)) < 1e-8


def test_closure_fails_on_a_set_that_does_not_close():
    # [d_t, t d_x] = d_x is not a constant combination of d_t and t d_x
    fields = [VectorFieldSpec.parse(("1", "0", "0")), VectorFieldSpec.parse(("0", "t", "0"))]
    pts = [(0.5, 1.0, 0.0), (1.0, -0.3, 0.2), (2.0, 0.4, -0.7)]
    assert closure_residual(fields, pts) > 0.1


def test_parameter_shadowing_a_coordinate_is_an_error():
    # the parameter used to win: the bracket below came out [5, 0, 0], not [2, 0, 0]
    with pytest.raises(ExprEvalError, match="parameter 'x' shadows a coordinate"):
        lie_bracket_at(
            VectorFieldSpec.parse(("1", "0", "0")), VectorFieldSpec.parse(("x*t", "0", "0")), (0.5, 2.0, 0.0), env={"x": 5.0}
        )


def test_independence_rank_counts():
    for tag, want in (("a", 4), ("b", 4), ("c+", 6), ("c-", 6)):
        case = SolutionCase(tag, -1.0 if tag == "b" else 1.0)
        m = solution_3d(case).metric
        rank = independence_rank(m, killing_fields(case), (0.8, 1.3, 0.45))
        assert rank == want


# -- dimension estimator -------------------------------------------------------------


def test_dimension_flat_maximal():
    assert killing_dimension_estimate(flat_metric(), (0.1, 0.2, 0.3), 2) == 6


@pytest.mark.parametrize("tag,want", [("a", 4), ("b", 4), ("c+", 6), ("c-", 6)])
def test_dimension_catalog(tag, want):
    m = case_metric(tag)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (0.9, 2.0, 0.9)]
    assert killing_dimension(m, pts, depth=2) == want


def test_dimension_stable_in_depth():
    for tag in ("a", "c+"):
        m = case_metric(tag)
        p = (0.8, 1.4, 0.3)
        d1 = killing_dimension_estimate(m, p, 1)
        d2 = killing_dimension_estimate(m, p, 2)
        assert d2 <= d1
        assert d1 == d2


def test_dimension_depth_bounds():
    with pytest.raises(GeometryError):
        killing_dimension_estimate(flat_metric(), (0, 0, 0), 3)


def test_dimension_disagreement_is_an_error():
    # a metric homogeneous on one slice but not elsewhere would disagree;
    # simulate by mixing points from different metrics is impossible, so
    # check the aggregation contract directly
    m = case_metric("a")
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8)]
    assert killing_dimension(m, pts, 2) == 4


def test_maximal_symmetry_tensor_check():
    from cottonkit.suite import check_max_symmetry

    assert check_max_symmetry(SolutionCase("c+", 1.0)).passed
    assert check_max_symmetry(SolutionCase("a", 1.0)).passed  # i.e. deviation is large


def _bracket_field_jets(xi, eta, seeds, env):
    """[xi, eta] components as order-1 jets from order-2 field jets."""
    from cottonkit.exprlang import _expr_jet

    def jets_of(field):
        return [_expr_jet(comp, seeds) for comp in field.components]

    a, b = jets_of(xi), jets_of(eta)
    bracket = []
    for mu in range(3):
        term = a[0].truncated(1) * 0.0
        for l in range(3):
            term = term + a[l].truncated(1) * b[mu].derivative(l)
            term = term - b[l].truncated(1) * a[mu].derivative(l)
        bracket.append(term)
    return bracket


def test_jacobi_cyclic_sum_on_catalog_triples():
    from itertools import combinations

    from cottonkit.exprlang import _expr_jet, coordinate_seeds

    case = SolutionCase("c+", 1.0)
    fields = killing_fields(case)
    env = dict(case.env)
    pts = [(0.7, 1.2, 0.4), (1.5, 0.7, -0.8)]
    for (i, j, k) in list(combinations(range(6), 3))[:8]:
        for p in pts:
            seeds = coordinate_seeds(("t", "x", "y"), p, env, 2)
            total = np.zeros(3)
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = _bracket_field_jets(fields[b], fields[c], seeds, env)
                # outer bracket with the jet-valued inner field
                outer_field = []
                av = [_expr_jet(comp, seeds) for comp in fields[a].components]
                for mu in range(3):
                    t = 0.0
                    for l in range(3):
                        t = t + float(np.asarray(av[l].coeffs[0])) * float(
                            np.asarray(inner[mu].derivative(l).coeffs[0])
                        )
                        t = t - float(np.asarray(inner[l].coeffs[0])) * float(
                            np.asarray(av[mu].derivative(l).coeffs[0])
                        )
                    total[mu] += t
            assert np.max(np.abs(total)) < 1e-9


@pytest.mark.parametrize("tag", ["a", "b", "c+", "c-"])
def test_dimension_stable_between_depths_all_cases(tag):
    m = case_metric(tag)
    p = (0.8, 1.4, 0.3)
    assert killing_dimension_estimate(m, p, 1) == killing_dimension_estimate(m, p, 2)
