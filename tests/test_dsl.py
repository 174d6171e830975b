"""Expression language: parsing, evaluation, printing, tower coherence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmech.dsl import (
    Bin,
    Call,
    Neg,
    Num,
    Param,
    Var,
    bind_scalar,
    eval_expr,
    evaluate,
    parse,
    to_source,
)
from lagmech.errors import (
    ArityError,
    DomainError,
    ParseError,
    UnboundParameter,
    VariableIndexError,
)
from lagmech.phase import PhasePoint
from lagmech.systems import catalog

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_sum_of_squares():
    e = parse("y1^2 + y2^2", 2)
    assert e == Bin("+", Bin("^", Var("y", 1), Num(2.0)), Bin("^", Var("y", 2), Num(2.0)))


def test_parse_unbalanced_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("sqrt(", 1)
    assert exc.value.offset == 5


def test_parse_riemannian_example_evaluates():
    e = parse("(1 + x1^2)*y1^2 + y2^2", 2)
    v = evaluate(e, PhasePoint((1.0, 0.0), (1.0, 1.0)))
    assert v == 3.0


def test_parse_variable_index_gate():
    with pytest.raises(VariableIndexError):
        parse("y3 + 1", 2)


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse("sqrt(y1, y1)", 1)
    with pytest.raises(ArityError):
        parse("pow(y1)", 1)


def test_parse_unknown_function():
    with pytest.raises(ParseError):
        parse("sinh(y1)", 1)


def test_precedence_unary_minus_vs_power():
    # -y1^2 must parse as -(y1^2)
    e = parse("-y1^2", 1)
    assert e == Neg(Bin("^", Var("y", 1), Num(2.0)))
    assert evaluate(e, PhasePoint((0.0,), (3.0,))) == -9.0


def test_power_right_associative():
    e = parse("y1^2^3", 1)
    assert evaluate(e, PhasePoint((0.0,), (2.0,))) == 2.0 ** 8


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_product():
    e = parse("x1*y1", 1)
    assert evaluate(e, PhasePoint((2.0,), (3.0,))) == 6.0


def test_eval_division_by_zero():
    e = parse("1/y1", 1)
    with pytest.raises(DomainError):
        evaluate(e, PhasePoint((0.0,), (0.0,)))


def test_eval_quartic_root_jet_tower():
    e = parse("((y1^4 + y2^4))^(1/2)", 2)
    j = evaluate(e, PhasePoint((0.0, 0.0), (1.0, 1.0)), tower="jet", order=2)
    assert j.value == pytest.approx(SQRT2, abs=1e-14)
    assert j.d_yy[0, 0] == pytest.approx(2.0 * SQRT2, rel=1e-12)


def test_eval_unbound_parameter():
    e = parse("e*y1", 1)
    with pytest.raises(UnboundParameter):
        evaluate(e, PhasePoint((0.0,), (1.0,)))
    assert evaluate(e, PhasePoint((0.0,), (1.0,)), params={"e": -0.5}) == -0.5


def test_eval_nonsmooth_rejected():
    with pytest.raises(ParseError):
        parse("abs(y1)", 1)


def test_integer_power_smooth_through_zero():
    e = parse("y1^4", 1)
    j = evaluate(e, PhasePoint((0.0,), (0.0,)), tower="jet", order=3)
    assert j.value == 0.0
    assert np.all(j.d_yyy == 0.0)


def test_noninteger_power_needs_positive_base():
    e = parse("y1^(1/2)", 1)
    with pytest.raises(DomainError):
        evaluate(e, PhasePoint((0.0,), (-1.0,)))


def test_pow_function_two_args():
    e = parse("pow(y1, 3)", 1)
    assert evaluate(e, PhasePoint((0.0,), (2.0,))) == 8.0


# ---------------------------------------------------------------------------
# pretty printing and round trips
# ---------------------------------------------------------------------------


def test_round_trip_builtin_sources():
    for entry in catalog():
        sys_ = entry.build(dict(entry.default_params))
        sources = [sys_.L.source]
        if sys_.V.sources:
            sources += list(sys_.V.sources)
        for src in sources:
            tree = parse(src, sys_.n)
            assert parse(to_source(tree), sys_.n) == tree


def test_round_trip_preserves_structure():
    cases = [
        "-(y1 + y2)^2",
        "y1 - (y2 - y1)",
        "1/(y1*y2)",
        "sin(x1)*cos(y1) - tan(y2)/exp(x2)",
        "pow(y1 + 1, y2)",
        "log(2 + y1^2)",
    ]
    for src in cases:
        tree = parse(src, 2)
        assert parse(to_source(tree), 2) == tree


def _expr_strategy():
    leaf = st.one_of(
        st.builds(Num, st.floats(0.1, 4.0).map(lambda v: float(f"{v:.3g}"))),
        st.builds(Var, st.sampled_from(["x", "y"]), st.integers(1, 2)),
        st.builds(Param, st.sampled_from(["e", "c"])),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from(["+", "-", "*"]), children, children),
            st.builds(lambda a: Call("sin", (a,)), children),
            st.builds(lambda a: Call("cos", (a,)), children),
            st.builds(lambda a, k: Bin("^", a, Num(float(k))), children, st.integers(1, 3)),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(tree=_expr_strategy())
def test_round_trip_random_trees(tree):
    assert parse(to_source(tree), 2) == tree


# ---------------------------------------------------------------------------
# tower coherence
# ---------------------------------------------------------------------------


def test_tower_value_bit_identical(rng):
    exprs = ["(y1^4 + y2^4)^(1/2)", "(1 + x1^2)*y1^2 + y2^2",
             "sin(x1*y1) + exp(0.2*y2) - y1/(2 + y2^2)", "log(1 + y1^2)*cos(x2)"]
    trees = [parse(s, 2) for s in exprs]
    for _ in range(250):
        p = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(0.2, 2.0, 2))
        for tree in trees:
            plain = evaluate(tree, p)
            jet = evaluate(tree, p, tower="jet", order=2)
            assert plain == jet.value  # bit-identical by construction
            assert math.copysign(1.0, plain) == math.copysign(1.0, float(jet.value))


def test_bound_field_rejects_missing_parameter():
    tree = parse("e*y1 + c", 1)
    with pytest.raises(UnboundParameter):
        bind_scalar(tree, 1, {"e": 1.0})


def test_jet_tower_matches_fd_for_each_function(rng):
    from lagmech.phase import ScalarField
    from oracle import fd_oracle

    sources = ["sin(y1)", "cos(y1)", "tan(0.4*y1)", "exp(y1)", "log(1 + y1^2)",
               "sqrt(1 + y1^2)", "y1^3", "(2 + y1)^(1/3)", "1/(2 + y1)"]
    p = PhasePoint((0.0,), (0.8,))
    for src in sources:
        tree = parse(src, 1)
        field = ScalarField(1, lambda xs, ys, t=tree: eval_expr(t, xs, ys))
        j = evaluate(tree, p, tower="jet", order=3)
        fd = fd_oracle(field, p, order=3, h=1e-5)
        for name in ("d_y", "d_yy", "d_yyy"):
            a, b = getattr(j, name), getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), src


@pytest.mark.parametrize("src", ["y1^(-2) + y1^2", "pow(y1, -2)"])
def test_negative_integer_power_of_a_jet(src):
    from lagmech.jets import eval_jet, push_direction
    from oracle import fd_oracle

    field = bind_scalar(parse(src, 1), 1)
    p = PhasePoint((0.0,), (2.0,))
    for order in (1, 2, 3):
        j = eval_jet(field, p, order=order)
        assert j.value == field.at(p)
        fd = fd_oracle(field, p, order=order, h=1e-5)
        for name in ("d_y", "d_yy", "d_yyy")[:order]:
            a, b = getattr(j, name), getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), (src, order, name)
    # under a push the jet's value slot carries a tangent: d/dy of dL/dy is d2L/dy2
    pushed = push_direction(lambda q: eval_jet(field, q, order=2).d_y, p, [1.0])
    fd = fd_oracle(field, p, order=2, h=1e-5)
    assert np.abs(pushed - fd.d_yy[:, 0]).max() <= 1e-6 * (1.0 + np.abs(fd.d_yy).max())
    with pytest.raises(DomainError):
        eval_jet(field, PhasePoint((0.0,), (0.0,)), order=2)
