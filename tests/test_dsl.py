"""Expression language: parsing, evaluation, printing, tower coherence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tower

from lagmech.dsl import (
    Bin,
    Call,
    Neg,
    Num,
    Param,
    Var,
    bind_scalar,
    bind_vertical,
    parse,
    to_source,
)
from lagmech.errors import (
    ArityError,
    ConfigError,
    DomainError,
    ParseError,
    UnboundParameter,
    VariableIndexError,
)
from lagmech.jets import eval_jet
from lagmech.phase import PhasePoint
from lagmech.systems import catalog

SQRT2 = math.sqrt(2.0)


def value(tree, p, params=None):
    """The plain value of an expression at a point, through its bound tree
    evaluated by the reference tower."""
    return tower.call(bind_scalar(tree, p.n, params), p.x, p.y)


def jet(tree, p, order):
    return eval_jet(bind_scalar(tree, p.n), p, order)


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
    v = value(e, PhasePoint((1.0, 0.0), (1.0, 1.0)))
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
    assert value(e, PhasePoint((0.0,), (3.0,))) == -9.0


def test_power_right_associative():
    e = parse("y1^2^3", 1)
    assert value(e, PhasePoint((0.0,), (2.0,))) == 2.0 ** 8


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_product():
    e = parse("x1*y1", 1)
    assert value(e, PhasePoint((2.0,), (3.0,))) == 6.0


def test_eval_division_by_zero():
    e = parse("1/y1", 1)
    with pytest.raises(DomainError):
        value(e, PhasePoint((0.0,), (0.0,)))


def test_eval_quartic_root_jet_tower():
    e = parse("((y1^4 + y2^4))^(1/2)", 2)
    j = jet(e, PhasePoint((0.0, 0.0), (1.0, 1.0)), 2)
    assert j.value == pytest.approx(SQRT2, abs=1e-14)
    assert j.d_yy[0, 0] == pytest.approx(2.0 * SQRT2, rel=1e-12)


def test_eval_unbound_parameter():
    e = parse("e*y1", 1)
    with pytest.raises(UnboundParameter):
        value(e, PhasePoint((0.0,), (1.0,)))
    assert value(e, PhasePoint((0.0,), (1.0,)), {"e": -0.5}) == -0.5


def test_eval_nonsmooth_rejected():
    with pytest.raises(ParseError):
        parse("abs(y1)", 1)


def test_integer_power_smooth_through_zero():
    e = parse("y1^4", 1)
    j = jet(e, PhasePoint((0.0,), (0.0,)), 3)
    assert j.value == 0.0
    assert np.all(j.d_yyy == 0.0)


def test_noninteger_power_needs_positive_base():
    e = parse("y1^(1/2)", 1)
    with pytest.raises(DomainError):
        value(e, PhasePoint((0.0,), (-1.0,)))


def test_pow_function_two_args():
    e = parse("pow(y1, 3)", 1)
    assert value(e, PhasePoint((0.0,), (2.0,))) == 8.0


def test_field_values_are_never_infinite():
    # 1e300 y1^2 overflows at y1 = 1e10: a field's value program raises its
    # finiteness check's error, at a point and over a batch, for L and V
    p = PhasePoint((0.0,), (1e10,))
    batch = PhasePoint((np.zeros(2),), (np.array([1.0, 1e10]),))
    for field, what in ((bind_scalar(parse("1e300*y1^2", 1), 1), "field"),
                        (bind_vertical([parse("1e300*y1^2", 1)], 1), "force")):
        for evaluate in (lambda: field(p.x, p.y), lambda: field.at(p), lambda: field.at(batch)):
            with pytest.raises(DomainError, match=f"^{what} evaluation produced a non-finite value$"):
                with np.errstate(over="ignore", invalid="ignore"):
                    evaluate()


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
            plain = value(tree, p)
            j = jet(tree, p, 2)
            assert plain == j.value  # bit-identical by construction
            assert math.copysign(1.0, plain) == math.copysign(1.0, float(j.value))


def test_bound_field_rejects_missing_parameter():
    tree = parse("e*y1 + c", 1)
    with pytest.raises(UnboundParameter):
        bind_scalar(tree, 1, {"e": 1.0})


@pytest.mark.parametrize("value", ["abc", None, [1.0], 1j])
def test_binding_rejects_a_parameter_that_is_not_a_real_number(value):
    # the field is its bound tree, so a value that is not a real number is a
    # ConfigError at binding, not a TypeError at the first evaluation
    with pytest.raises(ConfigError, match="parameter 'c' must be a number"):
        bind_scalar(parse("c*y1^2", 1), 1, {"c": value})
    with pytest.raises(ConfigError, match="parameter 'c' must be a number"):
        bind_vertical([parse("-c*y1", 1)], 1, {"c": value})
    # a parameter the expression does not use is not checked; an int binds
    # as the float it equals
    field = bind_scalar(parse("c*y1^2", 1), 1, {"c": 2, "d": value})
    assert field.tree == parse("2.0*y1^2", 1) and field.at(PhasePoint((0.0,), (3.0,))) == 18.0


def test_jet_tower_matches_fd_for_each_function(rng):
    from oracle import fd_oracle

    sources = ["sin(y1)", "cos(y1)", "tan(0.4*y1)", "exp(y1)", "log(1 + y1^2)",
               "sqrt(1 + y1^2)", "y1^3", "(2 + y1)^(1/3)", "1/(2 + y1)"]
    p = PhasePoint((0.0,), (0.8,))
    for src in sources:
        tree = parse(src, 1)
        field = bind_scalar(tree, 1)
        j = jet(tree, p, 3)
        fd = fd_oracle(field, p, order=3, h=1e-5)
        for name in ("d_y", "d_yy", "d_yyy"):
            a, b = getattr(j, name), getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), src


@pytest.mark.parametrize("src", ["y1^(-2) + y1^2", "pow(y1, -2)"])
def test_negative_integer_power_of_a_jet(src):
    from lagmech.jets import eval_jet
    from oracle import fd_oracle
    from tower import push_direction

    field = bind_scalar(parse(src, 1), 1)
    p = PhasePoint((0.0,), (2.0,))
    for order in (1, 2, 3):
        j = eval_jet(field, p, order=order)
        assert j.value == tower.call(field, p.x, p.y)
        fd = fd_oracle(field, p, order=order, h=1e-5)
        for name in ("d_y", "d_yy", "d_yyy")[:order]:
            a, b = getattr(j, name), getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), (src, order, name)
    # under a push the reference jet's value slot carries a tangent: d/dy
    # of dL/dy is d2L/dy2
    pushed = push_direction(lambda q: tower.eval_jet(field, q, order=2).d_y, p, [1.0])
    fd = fd_oracle(field, p, order=2, h=1e-5)
    assert np.abs(pushed - fd.d_yy[:, 0]).max() <= 1e-6 * (1.0 + np.abs(fd.d_yy).max())
    with pytest.raises(DomainError):
        eval_jet(field, PhasePoint((0.0,), (0.0,)), order=2)


# ---------------------------------------------------------------------------
# every primitive against the FD oracle, over random expression trees
# ---------------------------------------------------------------------------


def _one_plus_square(a):
    return Bin("+", Num(1.0), Bin("^", a, Num(2.0)))


def _guarded_strategy():
    """n=2 trees over every primitive, each used where it is smooth and
    bounded: sqrt, log and real powers of 1 + a^2, division by 2 + b^2,
    tan and exp of bounded arguments."""
    leaf = st.one_of(
        st.builds(Num, st.floats(0.1, 2.0).map(lambda v: float(f"{v:.3g}"))),
        st.builds(Var, st.sampled_from(["x", "y"]), st.integers(1, 2)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from(["+", "-", "*"]), children, children),
            st.builds(lambda a, b: Bin("/", a, Bin("+", Num(2.0), Bin("^", b, Num(2.0)))),
                      children, children),
            st.builds(lambda a, k: Bin("^", a, Num(float(k))), children, st.integers(2, 3)),
            st.builds(lambda a, r: Bin("^", _one_plus_square(a), Num(r)),
                      children, st.sampled_from([1.0 / 3.0, -0.5, 1.5])),
            st.builds(lambda a, f: Call(f, (_one_plus_square(a),)),
                      children, st.sampled_from(["sqrt", "log"])),
            st.builds(lambda a, f: Call(f, (Call("sin", (a,)),)),
                      children, st.sampled_from(["sin", "cos", "exp"])),
            st.builds(lambda a: Call("tan", (Bin("*", Num(0.5), Call("cos", (a,))),)), children),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(tree=_guarded_strategy(),
       x=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       y=st.tuples(st.floats(0.3, 1.5), st.floats(-1.5, -0.3)))
# two trees where a fixed-step oracle missed d_yy and d_yyy by its own
# truncation, not by the jets'
@example(tree=Call("exp", (Call("sin", (Bin("^", Bin("^", Var("y", 1), Num(2.0)), Num(2.0)),)),)),
         x=(0.0, 0.0), y=(1.0, -1.0))
@example(tree=Call("sin", (Call("sin", (Bin("^", Bin("^", _one_plus_square(Var("y", 1)), Num(1.5)),
                                             Num(2.0)),)),)),
         x=(0.0, 0.0), y=(1.0, -1.0))
def test_jets_of_random_trees_match_fd_and_pushes(tree, x, y):
    from lagmech.jets import eval_jet
    from oracle import fd_oracle
    from tower import push_direction

    field = bind_scalar(tree, 2)
    p = PhasePoint(x, y)
    for order in (1, 2, 3):
        j = eval_jet(field, p, order=order)
        assert j.value == tower.call(field, p.x, p.y)
        fd = fd_oracle(field, p, order=order, h=1e-5)
        for name in ("d_x", "d_y", "d_yy", "d_xy", "d_yyy")[:{1: 2, 2: 4, 3: 5}[order]]:
            a, b = getattr(j, name), getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), (order, name)
    # the y-tangent of the reference tower's order-2 gradient is the
    # compiled jet's Hessian
    d_yy = eval_jet(field, p, order=2).d_yy
    pushed = push_direction(lambda q: tower.eval_jet(field, q, order=2).d_y, p, np.eye(2))
    assert np.abs(pushed - d_yy).max() <= 1e-12 * (1.0 + np.abs(d_yy).max())
