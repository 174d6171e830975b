"""Compiled derivative programs against the reference tower: the same
blocks, accelerations, records and pointwise quantities, and the same
errors at the same points."""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residual_routes
import tower
import trajectory_routes
from lagmech.cli import main
from lagmech.compiled import program, run
from lagmech.dsl import Bin, Call, Neg, Num, Var, bind_scalar, bind_vertical
from lagmech.errors import DomainError, SingularMetric
from lagmech.jets import _invert, _lanes2, _spectrum2
from lagmech.mechanics import MechanicalSystem, PointGeometry, stack_points
from lagmech.phase import PhasePoint, VerticalField
from lagmech.systems import catalog, from_sources, instantiate, standard_samples
from test_dsl import _guarded_strategy
from tower import matvec, vecdot

_TOL = 1e-13
_POINT_FIELDS = ("spray0", "V", "spray", "sigma", "conn0", "dV_dy", "conn", "dsigma_dy",
                 "dSL_dy", "dS0L_dy", "d_yyy")


def _jet_route(kind, sys_, p):
    """The reference tower's acceleration at p."""
    with np.errstate(over="ignore", invalid="ignore"):
        return trajectory_routes.ACCEL[kind](sys_, p)


def _euler_route(sys_, p, order):
    """The reference tower's Euler test: |(dL/dy) y - 2 L| and L; at order
    2, from L and V with y seeded along y, also max |(dg/dy) y| and
    max |(dV/dy) y|."""
    if order == 1:
        j = tower.eval_jet(sys_.L, p, 1)
        return [residual_routes.euler_defect(j.value, j.d_y, p), j.value]
    q = tower.seed_point(p, np.array([p.y], dtype=float))
    d = tower.eval_jet(sys_.L, q, 2)
    v = tower.tower_vector(tower.call(sys_.V, q.x, q.y))
    j = d.primal()
    return [residual_routes.euler_defect(j.value, j.d_y, p), j.value,
            tower.max_abs(tower.tangent_part(d.d_yy * 0.5, 1)[..., 0]),
            tower.max_abs(tower.tangent_part(v, 1)[..., 0])]


def _pointwise_routes(sys_, p):
    """Each pointwise kind's outputs as ``run`` gives them, and the reference
    tower's, as functions of no argument."""
    def point():
        ctx = PointGeometry(sys_, p)
        return [ctx.jet.value, ctx.jet.d_x, ctx.jet.d_y, ctx.jet.d_yy, ctx.jet.d_xy,
                ctx.metric.entries, ctx.metric.inverse] + [getattr(ctx, f) for f in _POINT_FIELDS]

    def point_ref():
        ref = tower.point_geometry(sys_, p)
        j, g = ref["jet"], ref["metric"]
        return [j.value, j.d_x, j.d_y, j.d_yy, j.d_xy, g.entries, g.inverse] + [
            ref[f] for f in _POINT_FIELDS]

    def jet_ref(order):
        j = tower.eval_jet(sys_.L, p, order)
        return [j.value, j.d_x, j.d_y, j.d_yy, j.d_xy, j.d_yyy]

    def outputs(kind, V=None, arg=2):  # run's named outputs, in their order
        return lambda: list(run(kind, sys_.L, V, p, arg).values())

    def context():  # the free system's, which reads g's x-derivatives
        ctx = PointGeometry(sys_.free(), p)
        return [ctx.dg_dx, ctx.christoffel]

    def context_ref():  # the point report's checks, then the x-derivative pass's
        tower.point_geometry(sys_.free(), p)
        return [tower.metric_x_pass(sys_.L, p)[1], tower.christoffel(sys_.L, p)]

    routes = {"point": (point, point_ref), "context": (context, context_ref),
              "euler1": (outputs("euler", arg=1), lambda: _euler_route(sys_, p, 1)),
              "euler2": (outputs("euler", sys_.V), lambda: _euler_route(sys_, p, 2))}
    for order in range(4):
        routes[f"jet{order}"] = (outputs("jet", arg=order), lambda o=order: jet_ref(o))
    return routes


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised; a singular
    metric gives its eigenvalue range, which is roundoff where the metric
    is singular by cancellation"""
    try:
        return fn(*args), None
    except SingularMetric as err:
        return None, ("SingularMetric", err.min_abs_eigen, err.max_abs_eigen)
    except (DomainError, ArithmeticError, ValueError) as err:
        return None, (type(err).__name__, str(err))


def _same_error(err, ref):
    if err and ref and err[0] == ref[0] == "SingularMetric":
        return np.allclose(err[1:], ref[1:], rtol=1e-13, atol=1e-13 * ref[2])
    return err == ref


def _condition(sys_, p):
    metric = tower.sym_invert(tower.eval_jet(sys_.L, p, 2).d_yy * 0.5)
    return metric.max_abs_eigen / metric.min_abs_eigen_estimate


def _assert_close(got, ref, scale, what):
    """Each output of ``got`` equals ``ref``'s where that is not finite, and
    is within ``scale`` (1 + its max |entry|) of it where it is."""
    for a, b in zip(got, ref):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        finite = np.isfinite(b)
        assert a.shape == b.shape, what
        assert np.array_equal(a[~finite], b[~finite], equal_nan=True), what
        assert np.abs(a[finite] - b[finite]).max(initial=0.0) <= scale * (
            1.0 + np.abs(b[finite]).max(initial=0.0)), what


def _assert_agree(sys_, p, kinds=("evolution", "horizontal", "geodesic"), pointwise=True):
    """Each compiled program at p against the reference tower: a record's
    traces (given the curve program's acceleration) to 1e-13 of their
    size, accelerations and quantities read through the inverse to 1e-13
    times the metric's condition number (the inverse amplifies the blocks'
    rounding), or the same error; with ``pointwise`` also every pointwise
    kind."""
    z = [*p.x, *p.y]
    n = sys_.n
    if pointwise:
        for kind, (got_fn, ref_fn) in _pointwise_routes(sys_, p).items():
            with np.errstate(over="ignore", invalid="ignore"):
                got, err = _outcome(got_fn)
                ref, ref_err = _outcome(ref_fn)
            assert _same_error(err, ref_err), (kind, p, err, ref_err)
            if err is None:
                # the Euler pass, as the tower's, does not check V: an
                # infinite force is an infinite residual
                inverse = kind in ("point", "context")
                _assert_close(got, ref, _TOL * (_condition(sys_, p) if inverse else 1.0), (kind, p))
    for kind in kinds:
        zdot, err = _outcome(program(kind, sys_.L, None if kind == "geodesic" else sys_.V), z)
        accel, ref_err = _outcome(_jet_route, kind, sys_, p)
        assert _same_error(err, ref_err), (kind, p, err, ref_err)
        if err is not None:
            continue
        cond = _condition(sys_, p)
        a = np.array(zdot[n:])
        assert np.abs(a - accel).max() <= _TOL * cond * (1.0 + np.abs(accel).max()), (kind, p)
        # the record at z and this acceleration: E, L, power and the defect
        with np.errstate(over="ignore", invalid="ignore"):
            got, err = _outcome(program("record", sys_.L, sys_.V, kind), z + zdot[n:])
            ref, ref_err = _outcome(trajectory_routes.observe, sys_, p, a)
        assert _same_error(err, ref_err), ("record", kind, p, err, ref_err)
        if err is None:
            _assert_close(got, ref, _TOL, ("record", kind, p))


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_builtins_agree_with_the_jet_route(entry):
    sys_ = instantiate(entry.id, entry.default_params)
    for p in standard_samples(entry.id, entry.default_params, count=12):
        _assert_agree(sys_, p)
        _assert_agree(sys_.free(), p, kinds=("geodesic",))


_POINTS = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                    st.floats(0.3, 1.5), st.floats(-1.5, -0.3))


def random_system(lag, force):
    """L = lag + y1^2 + y2^2, which keeps most metrics regular (a singular
    one must fail the same way on both routes), with the force pair."""
    L = bind_scalar(Bin("+", lag, Bin("+", Bin("^", Var("y", 1), Num(2.0)),
                                      Bin("^", Var("y", 2), Num(2.0)))), 2)
    return MechanicalSystem(L, bind_vertical(list(force), 2), 2)


@settings(max_examples=60, deadline=None)
@given(lag=_guarded_strategy(), force=st.tuples(_guarded_strategy(), _guarded_strategy()),
       pts=st.lists(_POINTS, min_size=1, max_size=3))
def test_random_trees_agree_with_the_jet_route(lag, force, pts):
    sys_ = random_system(lag, force)
    for x1, x2, y1, y2 in pts:
        _assert_agree(sys_, PhasePoint((x1, x2), (y1, y2)))


def _holed_strategy():
    """n=2 trees whose primitives are applied wherever they land: roots,
    logarithms, real and negative integer powers and quotients of
    arguments that change sign, powers with varying exponents."""
    leaf = st.one_of(
        st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        st.builds(Var, st.sampled_from(["x", "y"]), st.integers(1, 2)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(lambda a, k: Bin("^", a, Num(k)), children,
                      st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5])),
            st.builds(lambda a, b: Call("pow", (a, b)), children, children),
            st.builds(lambda a, f: Call(f, (a,)), children,
                      st.sampled_from(["sqrt", "log", "sin", "cos", "exp", "tan"])),
        )

    return st.recursive(leaf, extend, max_leaves=5)


_HOLED_POINTS = st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5])] * 4)


@settings(max_examples=150, deadline=None)
@given(lag=_holed_strategy(), force=st.tuples(_holed_strategy(), _holed_strategy()),
       pts=st.lists(_HOLED_POINTS, min_size=1, max_size=4))
def test_domain_holes_fail_alike(lag, force, pts):
    sys_ = random_system(lag, force)
    for x1, x2, y1, y2 in pts:
        _assert_agree(sys_, PhasePoint((x1, x2), (y1, y2)))


# ---------------------------------------------------------------------------
# value programs: a field's call and ``at`` against the tower's eval_expr
# ---------------------------------------------------------------------------


def _listed(field, out):
    return out if isinstance(field, VerticalField) else [out]


def _value_reference(field, p):
    """A field's values at p by the tower's eval_expr, as a list, or the
    type and message of the error its value program must raise there: the
    tower's own, or the finiteness check's where a value is not finite."""
    try:
        values = _listed(field, tower.call(field, p.x, p.y))
    except DomainError as err:
        return None, ("DomainError", str(err))
    if not all(map(math.isfinite, values)):
        what = "force" if isinstance(field, VerticalField) else "field"
        return None, ("DomainError", f"{what} evaluation produced a non-finite value")
    return values, None


def _assert_values_match_the_tower(field, points):
    """At each point, by call and by ``at``: the tower's values, equal by ==
    (an exact zero may come back +0.0), or its error.  Over the batch of
    all the points: each point's values, or an error that one of the
    points raises alone."""
    refs = [_value_reference(field, p) for p in points]
    for p, (ref, ref_err) in zip(points, refs):
        for evaluate in (field.at, lambda q: field(q.x, q.y)):
            got, err = _outcome(lambda: _listed(field, evaluate(p)))
            assert err == ref_err and got == ref, (field, p, got, err, ref, ref_err)
    with np.errstate(over="ignore", invalid="ignore"):
        got, err = _outcome(lambda: _listed(field, field.at(stack_points(points))))
    errors = {ref_err for _, ref_err in refs if ref_err}
    if errors:
        assert err in errors, (field, points, err, errors)
        return
    assert err is None, (field, points, err)
    for k, column in enumerate(got):
        expected = [ref[k] for ref, _ in refs]
        assert np.array_equal(np.broadcast_to(column, (len(points),)), expected), (field, k)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_builtin_values_match_the_tower(entry):
    sys_ = instantiate(entry.id, entry.default_params)
    points = standard_samples(entry.id, entry.default_params, count=12)
    for field in (sys_.L, sys_.V):
        _assert_values_match_the_tower(field, points)


@settings(max_examples=60, deadline=None)
@given(lag=_guarded_strategy(), force=st.tuples(_guarded_strategy(), _guarded_strategy()),
       pts=st.lists(_POINTS, min_size=2, max_size=5))
def test_random_values_match_the_tower(lag, force, pts):
    points = [PhasePoint(p[:2], p[2:]) for p in pts]
    for field in (bind_scalar(lag, 2), bind_vertical(list(force), 2)):
        _assert_values_match_the_tower(field, points)


@settings(max_examples=100, deadline=None)
@given(lag=_holed_strategy(), force=st.tuples(_holed_strategy(), _holed_strategy()),
       pts=st.lists(_HOLED_POINTS, min_size=2, max_size=5))
def test_domain_holed_values_fail_alike(lag, force, pts):
    points = [PhasePoint(p[:2], p[2:]) for p in pts]
    for field in (bind_scalar(lag, 2), bind_vertical(list(force), 2)):
        _assert_values_match_the_tower(field, points)


@pytest.mark.parametrize("source, point, detail", [
    ("y1^2 + log(x1)", (-1.0, 0.5), "log of a non-positive value"),
    ("y1^2 + sqrt(y1 - 1)", (0.0, 1.0), "sqrt requires a positive argument for derivatives"),
    ("y1^2 + sqrt(x1 - 1)", (1.0, 1.0), "sqrt requires a positive argument for derivatives"),
    ("y1^2 + 1/(x1 - y1)", (1.0, 1.0), "division by zero"),
    ("y1^2 + (x1 - 1)^(-2)", (1.0, 1.0), "zero raised to a negative power"),
    ("y1^2 + (x1 - 1)^1.5", (1.0, 1.0), "non-integer power of a non-positive base"),
    ("y1^2 + exp(1000*x1)", (1.0, 1.0), "exp overflows"),
    ("y1^2 + 1e200*x1*1e200", (1.0, 1.0), "field evaluation produced a non-finite value"),
    ("y1^2 + log(x1)", (1e-320, 1.0), "field evaluation produced a non-finite derivative"),
    ("y1^2*y1", (1.0, 0.0), "metric rank failure: |eig| range [0.000e+00, 0.000e+00]"),
])
def test_each_guard_raises_as_the_jet_route(source, point, detail):
    # the evolution program's message; every program fails as its jet route
    from lagmech.dsl import parse

    sys_ = MechanicalSystem(bind_scalar(parse(source, 1), 1),
                            bind_vertical([parse("0", 1)], 1), 1)
    p = PhasePoint((point[0],), (point[1],))
    try:
        program("evolution", sys_.L, sys_.V)([*p.x, *p.y])
    except (DomainError, SingularMetric) as err:
        assert str(err) == detail
    else:
        raise AssertionError("no error")
    _assert_agree(sys_, p)


@pytest.mark.parametrize("force, point, detail", [
    ("1e200*y1*1e200", (0.0, 1.0), "force evaluation produced a non-finite value"),
    ("y1/x1", (0.0, 0.0), "division by zero"),
    ("pow(y1, x1 - 1)", (0.0, 0.0), "zero raised to a negative power"),
    ("pow(2 + y1, x1)", (0.5, 1.0), None),
])
def test_force_guards_follow_the_tower(force, point, detail):
    # over floats V's quotient by x1 fails as a float quotient; pushed along
    # y, a quotient of y1 is a dual one
    from lagmech.dsl import parse

    sys_ = MechanicalSystem(bind_scalar(parse("y1^2", 1), 1), bind_vertical([parse(force, 1)], 1), 1)
    p = PhasePoint((point[0],), (point[1],))
    _, err = _outcome(program("evolution", sys_.L, sys_.V), [*p.x, *p.y])
    assert (err and err[1]) == detail
    if force == "y1/x1":
        _, err = _outcome(program("horizontal", sys_.L, sys_.V), [*p.x, *p.y])
        assert err[1] == "division by zero in dual evaluation"
    _assert_agree(sys_, p)


def test_negative_power_of_an_underflowing_base_fails_as_the_tower():
    # x1^2 underflows to zero at x1 = 1e-200 where x1 is not: the value, the
    # blocks and every program raise the tower's DomainError
    from lagmech.dsl import parse

    p = PhasePoint((1e-200,), (1.0,))
    _assert_values_match_the_tower(bind_scalar(parse("x1^(-2)", 1), 1), [p])
    sys_ = MechanicalSystem(bind_scalar(parse("y1^2 + x1^(-2)", 1), 1),
                            bind_vertical([parse("0", 1)], 1), 1)
    _, err = _outcome(run, "jet", sys_.L, None, p, 2)
    assert err == ("DomainError", "division by zero")
    _assert_agree(sys_, p)


def _symmetric_entries(rng):
    """Row-major symmetric 1x1 and 2x2 matrices: random entries of
    magnitudes up to 1e300, near-singular ones with eigenvalue ratios on
    either side of the 1e-10 gate, and entries whose closed forms
    overflow or whose determinant underflows to zero (a subnormal [[e, e],
    [e, e]] among them, whose rank-gate product underflows too)."""
    for _ in range(300):
        yield [rng.normal() * 10.0 ** rng.uniform(-300, 300)]
        p, b, d = rng.normal(size=3) * 10.0 ** rng.uniform(-300, 300, size=3)
        yield [p, b, b, d]
        scale = 10.0 ** rng.uniform(-150, 299)
        big, small = scale * rng.choice([-1.0, 1.0]), scale * 10.0 ** rng.uniform(-13, -7)
        c, s = math.cos(rng.uniform(0, math.pi)), math.sin(rng.uniform(0, math.pi))
        yield [c * c * big + s * s * small, c * s * (big - small), c * s * (big - small),
               s * s * big + c * c * small]
    for e in (0.0, 5e-324, 1e-170, 1e160, 1e300, -1e300):
        yield [e]
        yield [e, 0.0, 0.0, e]
        yield [e, e, e, e]
    yield [1e300, 0.0, 0.0, 1e288]
    yield [1e300, 5e299, 5e299, -1e300]


def test_float_gate_and_inverse_match_the_jets():
    # the 1x1 and 2x2 gate and inverse the compiled programs call run on
    # floats, or over a batch as array operations of the same IEEE steps; they
    # give tower.sym_invert's bits and |eig| range, and its SingularMetric with
    # the same range
    def outcome(fn, *args):
        try:
            return np.array(fn(*args), dtype=float).ravel().tobytes(), None
        except SingularMetric as err:
            return None, (str(err), err.min_abs_eigen, err.max_abs_eigen)

    def inverted(m):
        return [*m.inverse.ravel(), m.min_abs_eigen_estimate, m.max_abs_eigen]

    def flat(inverse, mn, mx):
        return [*inverse, mn, mx]

    rng = np.random.default_rng(13)
    seen = Counter()
    for e in _symmetric_entries(rng):
        e, n = [float(v) for v in e], 1 if len(e) == 1 else 2
        a = np.array(e).reshape(n, n)
        with np.errstate(all="ignore"):  # numpy's 1x1 inverse of a subnormal overflows
            got = outcome(lambda: flat(*_invert(n, e, False)))
            ref = outcome(lambda: inverted(tower.sym_invert(a)))
            # a batch of two copies runs the same closed forms lane by lane
            batch = outcome(lambda: [v[1] for v in flat(*_invert(n, [np.array([v, v]) for v in e], True))])
        assert got == ref == batch, e
        seen[n, got[1] is None] += 1
    assert min(seen[2, True], seen[2, False], seen[1, True]) > 100 and seen[1, False]


def _mixed_2x2_lanes(rng):
    """(p, b, d) of every 2x2 case of ``_symmetric_entries``, of entries at
    +-inf, NaN, zero and one, and of 10^4 random draws at scales 1,
    2^+-980 and 1e+-300, one eigenvalue of some cancelled below the other's
    roundoff; shuffled, so that regular, rescaled and failing lanes mix."""
    lanes = [(float(e[0]), float(e[1]), float(e[3])) for e in _symmetric_entries(rng) if len(e) == 4]
    special = (math.inf, -math.inf, math.nan, 0.0, 1.0)
    lanes += [(p, b, d) for p in special for b in special for d in special]
    for scale in (1.0, 2.0 ** 980, 2.0 ** -980, 1e300, 1e-300):
        p, b, d = rng.normal(size=(3, 2000)) * scale
        cancelled = rng.random(2000) < 0.2  # |d| and |b| far below |p|
        d[cancelled] = p[cancelled] * 10.0 ** -rng.uniform(8, 40, cancelled.sum())
        b[cancelled] = p[cancelled] * 10.0 ** -rng.uniform(5, 40, cancelled.sum())
        lanes += zip(p.tolist(), b.tolist(), d.tolist())
    return [lanes[i] for i in rng.permutation(len(lanes))]


def test_batched_2x2_lanes_keep_the_bits_of_their_floats():
    # the batched 2x2 gate and inverse are masked array operations: each
    # lane's inverse and |eig| range are those of its floats bit for bit, a
    # batch with a failing lane raises that of its first failing lane, and
    # no numpy warning escapes, however the lanes mix
    def bits(*v):
        return np.array(v, dtype=float).tobytes()

    def alone(p, b, d):
        try:
            inverse, mn, mx = _invert(2, [p, b, b, d], False)
        except SingularMetric as err:
            return None, (str(err), bits(err.min_abs_eigen, err.max_abs_eigen))
        return bits(*inverse, mn, mx), None

    def batched(lanes):
        try:
            p, b, d = (np.array(v) for v in zip(*lanes))
            inverse, mn, mx = _invert(2, [p, b, b, d], True)
        except SingularMetric as err:
            return None, (str(err), bits(err.min_abs_eigen, err.max_abs_eigen))
        return [bits(*inverse[:, i], mn[i], mx[i]) for i in range(len(lanes))], None

    lanes = _mixed_2x2_lanes(np.random.default_rng(27))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = [alone(*lane) for lane in lanes]
        # every lane's |eig| range, failing ones included, before the gate
        with np.errstate(all="ignore"):  # as _invert calls it
            _, mn, mx = _lanes2(*(np.array(v) for v in zip(*lanes)))
        for lane, (mn_i, mx_i) in zip(lanes, zip(mn.tolist(), mx.tolist())):
            assert bits(mn_i, mx_i) == bits(*_spectrum2(*lane)), lane
        regular = [i for i, (_, err) in enumerate(floats) if err is None]
        got, err = batched([lanes[i] for i in regular])
        assert err is None and got == [floats[i][0] for i in regular]
        failing = Counter()
        for start in range(0, len(lanes), 97):  # each window's first failure
            window = floats[start:start + 97]
            got, err = batched(lanes[start:start + 97])
            first = next((e for _, e in window if e is not None), None)
            assert err == first and (got is None) == (first is not None), start
            failing[first is None] += 1
    assert min(failing.values()) > 10 and len(regular) > 5000


# ---------------------------------------------------------------------------
# one program serves a point and a curve
# ---------------------------------------------------------------------------


def _assert_point_serves_curve(sys_, p):
    """At p the evolution program's acceleration is, bit for bit, the
    context's -2 G, and its record's traces those the context's jet blocks
    and sigma give, each sum ordered from +0.0: the same DAG helpers build
    the programs.  (The context's outputs carry +0.0 for an exact zero, so
    both sides are compared with their zeros made +0.0.)"""
    try:
        zdot = program("evolution", sys_.L, sys_.V)([*p.x, *p.y])
        traces = program("record", sys_.L, sys_.V, "evolution")([*p.x, *p.y, *zdot[sys_.n:]])
        ctx = PointGeometry(sys_, p)
    except (DomainError, SingularMetric):
        return False
    n, j, y = sys_.n, ctx.jet, np.array(p.y)
    el = matvec(j.d_xy, y) + matvec(j.d_yy, zdot[n:]) - j.d_x - ctx.sigma
    pairs = [(traces, [ctx.energy, j.value, vecdot(ctx.sigma, y), np.abs(el).max()]),
             (zdot[n:], -2.0 * ctx.spray), (zdot[:n], p.y)]
    for a, b in pairs:
        a, b = (np.asarray(v, dtype=float) + 0.0 for v in (a, b))
        assert a.tobytes() == b.tobytes(), (p, a, b)
    return True


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_one_program_serves_a_point_and_a_curve(entry):
    sys_ = instantiate(entry.id, entry.default_params)
    assert all([_assert_point_serves_curve(sys_, p)
                for p in standard_samples(entry.id, entry.default_params, count=12)])


@settings(max_examples=40, deadline=None)
@given(lag=_guarded_strategy(), force=st.tuples(_guarded_strategy(), _guarded_strategy()),
       pts=st.lists(_POINTS, min_size=1, max_size=3))
def test_one_program_serves_random_points_and_curves(lag, force, pts):
    sys_ = random_system(lag, force)
    with np.errstate(over="ignore", invalid="ignore"):
        for x1, x2, y1, y2 in pts:
            _assert_point_serves_curve(sys_, PhasePoint((x1, x2), (y1, y2)))


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_float_programs_test_their_checks_as_bools(entry):
    # the curve and record programs run on floats alone: each check tests a
    # bool; a report runs over batches too, and tests an array's any()
    sys_ = instantiate(entry.id, entry.default_params)
    curves = ("evolution", "horizontal", "geodesic")
    floats = [program(curve, sys_.L, None if curve == "geodesic" else sys_.V) for curve in curves]
    floats += [program("record", sys_.L, sys_.V, curve) for curve in curves]
    assert "_DomainError" in floats[0].__code__.co_names
    assert not any("any" in fn.__code__.co_names for fn in floats)
    assert "any" in program("report", sys_.L, sys_.V, "point").__code__.co_names


# ---------------------------------------------------------------------------
# a constant metric's gate and inverse fold into the program at build time
# ---------------------------------------------------------------------------

_KINDS = ("evolution", "horizontal", "geodesic", "report")


def _inverts_at_run_time(sys_, kind):
    fn = program(kind, sys_.L, None, 2) if kind == "geodesic" else \
        program(kind, sys_.L, sys_.V, "point" if kind == "report" else 2)
    return "_invert" in fn.__code__.co_names


@pytest.mark.parametrize("builtin, params, folds", [
    ("SYS-A", {"c": 0.1}, True), ("EUCLID", {"n": 1}, True), ("EUCLID", {"n": 3}, True),
    ("EUCLID", {"n": 6}, True), ("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 6}, True),
    ("SYS-B", {}, False), ("SYS-D", {"e": -0.5}, False),
], ids=["SYS-A", "EUCLID1", "EUCLID3", "EUCLID6", "SYS-E6", "SYS-B", "SYS-D"])
def test_a_constant_metric_is_inverted_at_build_time(builtin, params, folds):
    # a metric of finite constants is gated and inverted once, when the
    # program is built; any other keeps the runtime statement
    sys_ = instantiate(builtin, params)
    assert [_inverts_at_run_time(sys_, kind) for kind in _KINDS] == [not folds] * len(_KINDS)


@pytest.mark.parametrize("system", [
    (3, "y1^2 + y2^2 + y3^2 + x1*y2 + x2^2*y3", ["-0.1*y1", "0", "0"]),
    (1, "y1^2 + x1^2*y1", ["-0.1*y1"]),
], ids=["n3", "n1"])
def test_gyroscopic_term_over_a_constant_metric_agrees_with_the_tower(system):
    # g = I folds while the linear-in-y terms keep G0 and N varying: the
    # partial of g^-1 u must not read g's entries off the folded inverse,
    # nor, at n = 1 where g^-1 u is u itself, take u's partial as its own
    sys_ = from_sources(*system)
    assert not any(_inverts_at_run_time(sys_, kind) for kind in _KINDS)
    samples = [PhasePoint([0.1 * k - 0.3, 0.2, -0.1 * k][:sys_.n],
                          [0.7, -0.4 + 0.2 * k, 1.0 - 0.1 * k][:sys_.n]) for k in range(6)]
    for p in samples:
        _assert_agree(sys_, p)
    batch = run("report", sys_.L, sys_.V, stack_points(samples), "point")
    for lane, p in enumerate(samples):
        for name, b in run("report", sys_.L, sys_.V, p, "point").items():
            assert np.asarray(batch[name])[..., lane].tobytes() == \
                np.asarray(b, dtype=float).tobytes(), (name, p)


def _cli(tmp_path, capsys, argv, doc):
    """``main`` of ``argv`` with the config ``doc`` after the command:
    the exit code, stdout and stderr."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code = main([argv[0], str(path), *argv[1:]])
    return (code, *capsys.readouterr())


_POINTS3 = [{"x": [0.1, 0.2, -0.3], "y": [0.7, 0.8, 0.5]},
            {"x": [0.3, -0.2, 0.1], "y": [0.5, -0.8, 1.0]},
            {"x": [-0.4, 0.1, 0.2], "y": [1.2, 0.3, -0.6]}]


def _classify_failures(tmp_path, capsys, system):
    code, out, _ = _cli(tmp_path, capsys, ["classify"], {"system": system, "samples": {"points": _POINTS3}})
    assert code == 0
    return [(f["index"], f["error"], f["detail"]) for f in json.loads(out)["failures"]]


def _simulate_status(tmp_path, capsys, system, curves=("evolution", "horizontal")):
    """The (exit code, status) pairs of simulate over ``curves`` under both
    integrators."""
    statuses = set()
    for curve in curves:
        for method in ("rk4_fixed", "rk45_adaptive"):
            code, _, err = _cli(tmp_path, capsys, ["simulate", "--curve", curve], {
                "system": system, "initial": _POINTS3[0],
                "integrator": {"method": method, "t_end": 0.2}})
            statuses.add((code, json.loads(err)["status"]))
    return statuses


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_constant_singular_metric_fails_at_run_time(tmp_path, capsys):
    # g = diag(1, 1, 0): the build-time gate fails, so the program keeps
    # the runtime gate, which fails at every point as before
    system = {"n": 3, "lagrangian": "y1^2 + y2^2 + 0*y3^2 + x1*y3"}
    sys_ = from_sources(3, system["lagrangian"])
    assert all(_inverts_at_run_time(sys_, kind) for kind in _KINDS)
    detail = "metric rank failure: |eig| range [0.000e+00, 1.000e+00]"
    assert _classify_failures(tmp_path, capsys, system) == [(i, "SingularMetric", detail) for i in range(3)]
    assert _simulate_status(tmp_path, capsys, system) == {(3, "singular_metric_stop")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_infinite_constant_metric_is_a_domain_error(tmp_path, capsys):
    # d_yy = 2e308 overflows to inf: the finiteness check fails before any
    # inverse, so the build must not take numpy's eigvalsh of it
    system = {"n": 3, "lagrangian": "1e308*(y1^2 + y2^2 + y3^2)"}
    failures = _classify_failures(tmp_path, capsys, system)
    assert [f[:2] for f in failures] == [(i, "DomainError") for i in range(3)]
    assert all(f[2].startswith("field evaluation produced a non-finite") for f in failures)
    assert _simulate_status(tmp_path, capsys, system) == {(3, "domain_stop")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lagrangian, status", [
    ("1e-310*(y1^2 + y2^2 + y3^2)", (0, "completed")),
    ("1e300*(y1^2 + y2^2) + 1e-300*y3^2", (3, "singular_metric_stop")),
], ids=["subnormal", "ill-conditioned"])
def test_extreme_scale_constant_metrics_keep_their_outcomes(tmp_path, capsys, lagrangian, status):
    # g = 1e-310 I inverts to an overflow, so it is left to the runtime
    # statement; diag(1e300, 1e300, 1e-300) fails the gate at build time
    system = {"n": 3, "lagrangian": lagrangian}
    sys_ = from_sources(3, lagrangian)
    assert all(_inverts_at_run_time(sys_, kind) for kind in _KINDS)
    failures = _classify_failures(tmp_path, capsys, system)
    if status[0]:
        assert [f[:2] for f in failures] == [(i, "SingularMetric") for i in range(3)]
    else:
        assert failures == []
    assert _simulate_status(tmp_path, capsys, system, _KINDS[:3]) == {status}
