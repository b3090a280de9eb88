import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sharpcheck.polyexpr import (
    Jet2,
    ModelError,
    Options,
    ParseError,
    ProblemInstance,
    evaluate_jet,
    parse_expression,
    value_gradient_rows,
)
from sharpcheck.sets import Box, Interval, PointSet

from helpers import derivative_check


def test_parse_quadratic():
    e = parse_expression("x1^2 - 2*x1 + x2^2")
    assert e([0.0, 0.0]) == 0.0
    assert e([1.0, 1.0]) == 0.0
    assert e([2.0, 3.0]) == 9.0


def test_parse_single_variable_square():
    e = parse_expression("x2^2")
    assert e([5.0, 3.0]) == 9.0


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_expression("x1^(1/2)")
    with pytest.raises(ParseError):
        parse_expression("x1^2.5")
    with pytest.raises(ParseError):
        parse_expression("x1^-2")


def test_unknown_identifier_and_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 + y2")
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_expression("x1 + + x2")
    with pytest.raises(ParseError):
        parse_expression("(x1 + x2")
    with pytest.raises(ParseError):
        parse_expression("x1 @ x2")


def test_unary_minus_binds_inside_the_power():
    # the grammar nests "-" inside base, so -x1^2 reads as (-x1)^2
    e = parse_expression("-x1^2")
    assert e([3.0]) == 9.0
    f = parse_expression("0 - x1^2")
    assert f([3.0]) == -9.0


def test_evaluate_jet_first_example_constraint():
    e = parse_expression("x1^2 - 2*x1 + x2^2")
    j = evaluate_jet(e, [0.0, 0.0])
    assert j.value == 0.0
    assert np.allclose(j.gradient, [-2.0, 0.0])
    assert np.allclose(j.hessian, np.diag([2.0, 2.0]))


def test_evaluate_jet_objective():
    j = evaluate_jet(parse_expression("x2^2"), [0.0, 0.0])
    assert j.value == 0.0
    assert np.allclose(j.gradient, [0.0, 0.0])
    assert np.allclose(j.hessian, np.diag([0.0, 2.0]))


def test_evaluate_jet_vector_map():
    g = [parse_expression("x1^2"), parse_expression("x1")]
    j = evaluate_jet(g, [0.0])
    assert np.allclose(j.values, [0.0, 0.0])
    assert np.allclose(j.jacobian, [[0.0], [1.0]])
    assert np.allclose(j.hessians[0], [[2.0]])
    assert np.allclose(j.hessians[1], [[0.0]])


def test_jet_rejects_asymmetric_hessian():
    with pytest.raises(ModelError, match="symmetric"):
        Jet2(np.zeros(1), np.zeros((1, 2)), (np.array([[0.0, 1.0], [0.0, 0.0]]),))


def test_mixed_terms_and_coefficients():
    e = parse_expression("3*x1*x2^2 - 0.5*x1^3 + 2")
    x = np.array([1.5, -2.0])
    j = evaluate_jet(e, x)
    assert j.value == pytest.approx(3 * 1.5 * 4 - 0.5 * 1.5**3 + 2)
    assert j.gradient[0] == pytest.approx(3 * 4 - 1.5 * 1.5**2)
    assert j.gradient[1] == pytest.approx(3 * 1.5 * 2 * -2.0)
    assert j.hessian[0, 1] == pytest.approx(6 * -2.0)
    assert j.hessian[1, 1] == pytest.approx(6 * 1.5)


def _random_poly(rng, nvars, degree=4, nterms=8):
    text_parts = []
    for _ in range(nterms):
        coef = rng.uniform(-3, 3)
        part = f"{coef:.6f}"
        for i in range(1, nvars + 1):
            e = rng.integers(0, degree + 1)
            if e:
                part += f"*x{i}^{e}"
        text_parts.append(part)
    return parse_expression("+".join(text_parts).replace("+-", "-"), nvars)


def test_derivative_check_random_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        e = _random_poly(rng, 3)
        x = rng.uniform(-1, 1, size=3)
        report = derivative_check(e, x)
        assert report.passed, report


def test_derivative_check_first_example_point():
    e = parse_expression("x1^2 - 2*x1 + x2^2")
    assert derivative_check(e, [0.3, -0.2]).passed


def test_derivative_check_flags_corrupted_jacobian():
    e = parse_expression("x1^2 - 2*x1 + x2^2")
    x = np.array([0.3, -0.2])
    jet = evaluate_jet(e, x)
    bad = Jet2(jet.values, jet.jacobian + np.array([[0.5, 0.0]]), jet.hessians)
    report = derivative_check(e, x, jet=bad)
    assert not report.passed
    assert report.location == "jacobian[0,0]"
    assert report.max_rel_error > 0.1


def test_problem_instance_validation():
    with pytest.raises(ModelError, match="infeasible"):
        ProblemInstance(n=1, m=1, f=parse_expression("x1", 1),
                        g=[parse_expression("x1", 1)],
                        K=Interval(-1.0, -0.5), S=PointSet([0.0]), xbar=[0.0])
    with pytest.raises(ModelError, match="belong to S"):
        ProblemInstance(n=1, m=1, f=parse_expression("x1", 1),
                        g=[parse_expression("x1", 1)],
                        K=Interval(-1.0, 1.0), S=PointSet([0.5]), xbar=[0.0])
    with pytest.raises(ModelError, match="not contained"):
        # S = [-1, 1] pokes outside the feasible set [-1/2, 1/2]
        ProblemInstance(n=1, m=1, f=parse_expression("x1", 1),
                        g=[parse_expression("2*x1", 1)],
                        K=Interval(-1.0, 1.0), S=Interval(-1.0, 1.0), xbar=[0.0])


def test_options_validation():
    with pytest.raises(ModelError):
        Options(epsilon=0.5)
    with pytest.raises(ModelError):
        Options(delta=0.0)
    assert Options(epsilon=0.25).epsilon == 0.25


# -- row evaluation --------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _poly_and_rows(draw):
    """A polynomial with exponents up to 5 over 1..4 variables (as a list of
    constraint components) and 1..12 evaluation points."""
    n = draw(st.integers(1, 4))
    coef = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    exprs = []
    for _ in range(draw(st.integers(1, 3))):
        parts = []
        for _ in range(draw(st.integers(1, 6))):
            part = f"{draw(coef):.17g}"
            for i in range(1, n + 1):
                e = draw(st.integers(0, 5))
                if e:
                    part += f"*x{i}^{e}"
            parts.append(f"({part})")
        exprs.append(parse_expression(" + ".join(parts), n))
    X = draw(hnp.arrays(float, (draw(st.integers(1, 12)), n),
                        elements=st.floats(-2.5, 2.5, allow_nan=False,
                                           allow_infinity=False)))
    return n, exprs, X


@settings(max_examples=200, deadline=None)
@given(_poly_and_rows())
def test_row_evaluation_matches_pointwise_bit_for_bit(case):
    n, exprs, X = case
    for e in exprs:
        assert _same_bits(e.eval_rows(X), [e(x) for x in X])
        vals, grads = value_gradient_rows(e, X)
        jets = [evaluate_jet(e, x) for x in X]
        assert _same_bits(vals, [j.values[0] for j in jets])
        assert _same_bits(grads, [j.jacobian[0] for j in jets])
    p = ProblemInstance(n, len(exprs), parse_expression("x1", n), exprs,
                        Box([(-np.inf, np.inf)] * len(exprs)), PointSet(np.zeros(n)),
                        np.zeros(n))
    G, J = p.g_jet_rows(X)
    assert _same_bits(p.g_value_rows(X), [p.g_value(x) for x in X])
    assert _same_bits(G, [p.g_value(x) for x in X])
    assert _same_bits(J, [p.g_jet(x).jacobian for x in X])


@settings(max_examples=200, deadline=None)
@given(_poly_and_rows())
def test_one_row_evaluation_matches_the_batched_rows_bit_for_bit(case):
    # a one-row batch is evaluated by the scalar call; the batched path it
    # replaces gives each row of a longer batch the same bits
    _, exprs, X = case
    for e in exprs:
        batched = e.eval_rows(np.concatenate([X, X]))
        for i, x in enumerate(X):
            one = e.eval_rows(x[None])
            assert _same_bits(one, [e(x)])
            assert _same_bits(one, batched[i:i + 1])


def test_row_evaluation_shapes():
    e = parse_expression("x1*x2 + 1", 2)
    assert e.eval_rows(np.zeros((0, 2))).shape == (0,)
    assert e.eval_rows(np.ones((3, 2))).tolist() == [2.0, 2.0, 2.0]
    vals, grads = value_gradient_rows(e, np.zeros((0, 2)))
    assert vals.shape == (0,) and grads.shape == (0, 2)
    for bad in (np.zeros(2), np.zeros((3, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ModelError):
            e.eval_rows(bad)
