"""Kernel tests: jet propagation, the FD oracle, pushes, inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmech.errors import DomainError, SingularMetric
from lagmech.jets import (
    KDual,
    eval_jet,
    push_direction,
    sym_invert,
)
from lagmech.phase import PhasePoint, ScalarField
from oracle import fd_oracle

SQRT2 = math.sqrt(2.0)


def quartic_root_field():
    return ScalarField(2, lambda x, y: ((y[0] ** 4 + y[1] ** 4)) ** 0.5)


# ---------------------------------------------------------------------------
# eval_jet
# ---------------------------------------------------------------------------


def test_jet_quadratic_form():
    f = ScalarField(2, lambda x, y: y[0] * y[0] + y[1] * y[1])
    j = eval_jet(f, PhasePoint((0.0, 0.0), (1.0, 2.0)), order=2)
    assert j.value == 5.0
    assert np.array_equal(j.d_y, [2.0, 4.0])
    assert np.array_equal(j.d_yy, [[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(j.d_x, [0.0, 0.0])


def test_jet_constant_field():
    f = ScalarField(2, lambda x, y: 7.0)
    j = eval_jet(f, PhasePoint((0.3, -1.0), (1.0, 2.0)), order=3)
    assert j.value == 7.0
    for block in (j.d_x, j.d_y, j.d_yy, j.d_xy, j.d_yyy):
        assert np.all(np.asarray(block) == 0.0)


def test_jet_quartic_root_second_derivative():
    # d2/dy1^2 of sqrt(y1^4 + y2^4) at (1, 1) is 2*sqrt(2)
    j = eval_jet(quartic_root_field(), PhasePoint((0.0, 0.0), (1.0, 1.0)), order=2)
    assert j.value == pytest.approx(SQRT2, abs=1e-14)
    assert j.d_yy[0, 0] == pytest.approx(2.0 * SQRT2, rel=1e-12)


def test_jet_order_truncation_flags():
    f = quartic_root_field()
    j = eval_jet(f, PhasePoint((0.0, 0.0), (1.0, 1.0)), order=1)
    assert j.order == 1
    assert np.all(j.d_yy == 0.0)
    assert np.all(j.d_yyy == 0.0)
    assert j.d_y[0] != 0.0


def test_jet_domain_error_on_slit():
    f = quartic_root_field()
    with pytest.raises(DomainError):
        eval_jet(f, PhasePoint((0.0, 0.0), (0.0, 0.0)), order=1)


def test_jet_order_gate():
    f = quartic_root_field()
    with pytest.raises(ValueError):
        eval_jet(f, PhasePoint((0.0, 0.0), (1.0, 1.0)), order=4)


def test_jet_symmetry_is_bitwise(rng):
    f = ScalarField(
        3,
        lambda x, y: (y[0] * y[1] * y[2] + (y[0] ** 4 + y[1] ** 4 + y[2] ** 4) ** 0.5
                      + x[0] * y[1] ** 3),
    )
    for _ in range(5):
        p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(0.4, 1.6, 3))
        j = eval_jet(f, p, order=3)
        assert np.array_equal(j.d_yy, j.d_yy.T)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert np.array_equal(j.d_yyy, j.d_yyy.transpose(perm))


# ---------------------------------------------------------------------------
# fd oracle
# ---------------------------------------------------------------------------


def test_fd_exact_on_quadratics():
    f = ScalarField(2, lambda x, y: 3.0 * y[0] * y[0] - y[0] * y[1])
    fd = fd_oracle(f, PhasePoint((0.0, 0.0), (0.7, -0.4)), order=2, h=1e-4)
    expected = np.array([[6.0, -1.0], [-1.0, 0.0]])
    assert np.abs(fd.d_yy - expected).max() < 1e-7


def test_fd_sine_first_derivative():
    f = ScalarField(1, lambda x, y: math.sin(y[0]) if isinstance(y[0], float) else y[0].sin())
    fd = fd_oracle(f, PhasePoint((0.0,), (0.0,)), order=1, h=1e-5)
    assert abs(fd.d_y[0] - 1.0) <= 1e-9


@pytest.mark.parametrize("builtin", ["SYS-A", "SYS-B", "SYS-C"])
def test_fd_agrees_with_jets_on_builtins(builtin, samples_a, samples_b, samples_c,
                                         sys_a, sys_b, sys_c):
    sys_ = {"SYS-A": sys_a, "SYS-B": sys_b, "SYS-C": sys_c}[builtin]
    pts = {"SYS-A": samples_a, "SYS-B": samples_b, "SYS-C": samples_c}[builtin]
    for p in pts[:12]:
        j = eval_jet(sys_.L, p, order=3)
        fd = fd_oracle(sys_.L, p, order=3, h=1e-5)
        for name in ("d_x", "d_y", "d_yy", "d_xy", "d_yyy"):
            a = getattr(j, name)
            b = getattr(fd, name)
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(b).max()), (name, p)


# ---------------------------------------------------------------------------
# push_direction
# ---------------------------------------------------------------------------


def test_push_identity_pipeline():
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    out = push_direction(lambda q: list(q.y), p, [0.0, 1.0])
    assert np.array_equal(out, [0.0, 1.0])


def test_push_componentwise_square():
    p = PhasePoint((0.0, 0.0), (3.0, 4.0))
    out = push_direction(lambda q: [q.y[0] * q.y[0], q.y[1] * q.y[1]], p, [1.0, 0.0])
    assert np.array_equal(out, [6.0, 0.0])


def test_push_spray_matches_fd_column(sys_b):
    from lagmech.geometry import canonical_spray_at

    p = PhasePoint((1.0, 0.0), (1.0, 1.0))
    col = push_direction(lambda q: canonical_spray_at(sys_b.L, q), p, [1.0, 0.0])
    h = 1e-5
    up = canonical_spray_at(sys_b.L, PhasePoint((1.0, 0.0), (1.0 + h, 1.0)))
    dn = canonical_spray_at(sys_b.L, PhasePoint((1.0, 0.0), (1.0 - h, 1.0)))
    fd = (up - dn) / (2.0 * h)
    assert np.abs(col - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


def test_push_jacobian_reconstructs_metric(sys_c, samples_c):
    # the y-Jacobian of grad_y L is the full velocity Hessian, i.e. 2 g
    for p in samples_c[:6]:
        jac = push_direction(lambda q: eval_jet(sys_c.L, q, order=1).d_y, p, np.eye(2))
        j = eval_jet(sys_c.L, p, order=2)
        assert np.abs(jac - j.d_yy).max() <= 1e-10 * (1.0 + np.abs(j.d_yy).max())


def test_push_through_matrix_inverse_matches_identity_rule(sys_c):
    # d(g^-1) along a direction equals -g^-1 (dg) g^-1
    from lagmech.geometry import metric_at

    p = PhasePoint((0.0, 0.0), (0.9, 1.4))
    d = [1.0, -0.5]
    dinv = push_direction(lambda q: metric_at(sys_c.L, q).inverse, p, d)
    g = metric_at(sys_c.L, p)
    dg = push_direction(lambda q: metric_at(sys_c.L, q).entries, p, d)
    analytic = -g.inverse @ dg @ g.inverse
    assert np.abs(dinv - analytic).max() <= 1e-10 * (1.0 + np.abs(analytic).max())


# ---------------------------------------------------------------------------
# sym_invert
# ---------------------------------------------------------------------------


def test_sym_invert_identity():
    sm = sym_invert(np.eye(2))
    assert np.array_equal(sm.inverse, np.eye(2))
    assert sm.min_abs_eigen_estimate == pytest.approx(1.0)


def test_sym_invert_rank_deficient():
    with pytest.raises(SingularMetric):
        sym_invert(np.diag([2.0, 0.0]))


def test_sym_invert_sys_b_metric(sys_b):
    from lagmech.geometry import metric_at

    g = metric_at(sys_b.L, PhasePoint((1.0, 0.0), (0.3, 0.4)))
    assert np.abs(g.entries - np.diag([2.0, 1.0])).max() < 1e-14
    assert np.abs(g.inverse - np.diag([0.5, 1.0])).max() < 1e-14


def test_sym_invert_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_invert(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_sym_invert_product_is_identity(rng):
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + 0.5 * np.eye(3)
        sm = sym_invert(m)
        cond = sm.max_abs_eigen / sm.min_abs_eigen_estimate
        err = np.abs(sm.entries @ sm.inverse - np.eye(3)).max()
        assert err <= 1e-10 * cond


# ---------------------------------------------------------------------------
# dual scalars
# ---------------------------------------------------------------------------


def test_dual_arithmetic_product_rule():
    x = KDual(3.0, np.array([1.0]))
    y = x * x * x  # d/dx x^3 = 27
    assert y.val == 27.0
    assert y.tan[0] == 27.0


def test_dual_division_and_functions():
    from lagmech.jets import s_log, s_sqrt

    x = KDual(2.0, np.array([1.0]))
    y = (1.0 + x * x) / x  # f = x + 1/x, f' = 1 - 1/x^2
    assert y.val == pytest.approx(2.5)
    assert y.tan[0] == pytest.approx(0.75)
    s = s_sqrt(x)
    assert s.val == pytest.approx(math.sqrt(2.0))
    assert s.tan[0] == pytest.approx(0.5 / math.sqrt(2.0))
    lg = s_log(x)
    assert lg.tan[0] == pytest.approx(0.5)
    with pytest.raises(DomainError):
        s_sqrt(KDual(0.0, np.array([1.0])))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.3, 2.0),
    c=st.floats(-1.5, 1.5),
)
def test_jet_matches_fd_on_random_cubics(a, b, c):
    f = ScalarField(1, lambda x, y: a * y[0] * y[0] * y[0] + b * y[0] * y[0] + c * y[0])
    p = PhasePoint((0.0,), (0.7,))
    j = eval_jet(f, p, order=3)
    assert j.d_y[0] == pytest.approx(3 * a * 0.49 + 2 * b * 0.7 + c, abs=1e-12)
    assert j.d_yy[0, 0] == pytest.approx(6 * a * 0.7 + 2 * b, abs=1e-12)
    assert j.d_yyy[0, 0, 0] == pytest.approx(6 * a, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(direction=st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_push_is_linear_in_direction(direction):
    f = quartic_root_field()
    p = PhasePoint((0.0, 0.0), (1.1, 0.8))

    def pipeline(q):
        return eval_jet(f, q, order=1).d_y

    d = np.asarray(direction)
    full = push_direction(pipeline, p, d)
    e0 = push_direction(pipeline, p, [1.0, 0.0])
    e1 = push_direction(pipeline, p, [0.0, 1.0])
    assert np.abs(full - (d[0] * e0 + d[1] * e1)).max() <= 1e-9 * (1 + np.abs(full).max())


# ---------------------------------------------------------------------------
# the k-tangent layer
# ---------------------------------------------------------------------------

_PUSH_SYSTEMS = {
    "SYS-A": ("SYS-A", {"c": 0.1}),
    "SYS-B": ("SYS-B", {}),
    "SYS-D": ("SYS-D", {"e": -0.5}),
    "SYS-E6": ("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 6}),
}


def _push_case(name):
    from lagmech.systems import instantiate, standard_samples

    builtin, params = _PUSH_SYSTEMS[name]
    return instantiate(builtin, params), standard_samples(builtin, params, count=8)


def _shifted(p, wrt, step):
    if wrt == "y":
        return PhasePoint(p.x, np.asarray(p.y) + step)
    return PhasePoint(np.asarray(p.x) + step, p.y)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(_PUSH_SYSTEMS)),
    index=st.integers(0, 7),
    wrt=st.sampled_from(["x", "y"]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_vector_push_matches_single_pushes_and_fd(name, index, wrt, k, seed):
    from lagmech.mechanics import evolution_spray_at

    sys_, samples = _push_case(name)
    p = samples[index]
    d = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, sys_.n))

    def pipeline(q):
        return evolution_spray_at(sys_, q)

    many = push_direction(pipeline, p, d, wrt=wrt)
    assert many.shape == (sys_.n, k)
    for c in range(k):
        one = push_direction(pipeline, p, d[c], wrt=wrt)
        assert np.abs(many[:, c] - one).max() <= 1e-12 * (1.0 + np.abs(one).max())
        h = 1e-6
        fd = (pipeline(_shifted(p, wrt, h * d[c])) - pipeline(_shifted(p, wrt, -h * d[c]))) / (2 * h)
        assert np.abs(one - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("near_gate", [False, True])
def test_inverse_tangent_matches_fd(n, near_gate):
    rng = np.random.default_rng(n)
    if near_gate:
        # eigenvalue magnitudes down to 10x above the rank gate, permuted
        perm = rng.permutation(n)
        a = np.diag(np.geomspace(1.0, 1e-9, n) * rng.choice([-1.0, 1.0], n))[perm][:, perm]
    else:
        b = rng.normal(size=(n, n))
        a = b @ b.T + 0.5 * np.eye(n)
    da = rng.normal(size=(n, n, 2))
    da = da + da.transpose(1, 0, 2)
    sm = sym_invert(KDual(a, da))
    h = 1e-4 * np.abs(np.linalg.eigvalsh(a)).min() / np.abs(da).max()
    for c in range(2):
        up = sym_invert(a + h * da[..., c]).inverse
        dn = sym_invert(a - h * da[..., c]).inverse
        fd = (up - dn) / (2 * h)
        assert np.abs(sm.inverse.tan[..., c] - fd).max() <= 1e-6 * np.abs(fd).max()


def test_x_push_through_x_free_lagrangian_stays_float():
    from lagmech.jets import Jet

    n = 3
    f = ScalarField(n, lambda x, y: y[0] * y[0] + y[1] * y[2] + y[2] ** 4)
    seen = []

    def pipeline(q):
        j = eval_jet(f, q, order=3)
        seen.append(j)
        return sym_invert(j.d_yy * 0.5).inverse

    p = PhasePoint((0.2, -0.1, 0.4), (1.0, 0.7, 1.3))
    out = push_direction(pipeline, p, np.eye(n), wrt="x")
    assert out.shape == (n, n, n) and not out.any()
    (j,) = seen
    assert isinstance(j, Jet) and isinstance(j.value, float)
    for block in (j.d_x, j.d_y, j.d_yy, j.d_xy, j.d_yyy):
        assert type(block) is np.ndarray


def test_push_outputs_and_jet_blocks_are_float64(sys_d):
    from lagmech.geometry import canonical_spray_at, metric_at
    from lagmech.mechanics import _evolution_pass, _scalar_s, sigma_at

    p = PhasePoint((0.3, -0.2), (0.9, 1.4))
    jets_built = []

    def scalar_sl(q):
        r = _evolution_pass(sys_d, q)
        return _scalar_s(r, r.spray)

    def jet_pipeline(q):
        j = eval_jet(sys_d.L, q, order=3)
        jets_built.append(j)
        return j.d_yyy

    pipelines = [jet_pipeline,
                 lambda q: canonical_spray_at(sys_d.L, q),
                 lambda q: sigma_at(sys_d, q),
                 lambda q: metric_at(sys_d.L, q).inverse,
                 scalar_sl,
                 lambda q: sys_d.V(q.x, q.y)]
    for pipeline in pipelines:
        for wrt in ("x", "y"):
            for d in ([1.0, -0.5], np.eye(2)):
                out = np.asarray(push_direction(pipeline, p, d, wrt=wrt))
                assert out.dtype == np.float64
    assert jets_built
    for j in jets_built:
        for block in (j.value, j.d_x, j.d_y, j.d_yy, j.d_xy, j.d_yyy):
            parts = (block.val, block.tan) if isinstance(block, KDual) else (block,)
            for part in parts:
                assert np.asarray(part).dtype == np.float64


@pytest.mark.parametrize("name", sorted(_PUSH_SYSTEMS))
@pytest.mark.parametrize("wrt", ["x", "y"])
def test_energy_push_matches_fd(name, wrt):
    from lagmech.geometry import energy_at

    sys_, samples = _push_case(name)
    p = samples[3]
    d = np.random.default_rng(7).uniform(-1.0, 1.0, (2, sys_.n))
    h = 1e-6
    for part in (0, 1):
        def pipeline(q):
            return energy_at(sys_.L, q)[part]

        many = push_direction(pipeline, p, d, wrt=wrt)
        for c in range(2):
            one = push_direction(pipeline, p, d[c], wrt=wrt)
            assert np.abs(many[..., c] - one).max() <= 1e-12 * (1.0 + np.abs(one).max())
            fd = (np.asarray(pipeline(_shifted(p, wrt, h * d[c])))
                  - np.asarray(pipeline(_shifted(p, wrt, -h * d[c])))) / (2 * h)
            assert np.abs(one - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


def test_kdual_dot_is_matmul_and_has_no_array_form():
    rng = np.random.default_rng(3)
    a = KDual(rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 2)))
    v = KDual(rng.normal(size=3), rng.normal(size=(3, 2)))
    w = rng.normal(size=3)
    for lhs, rhs in ((a, v), (v, a), (a, w), (v, v)):
        left, right = lhs.dot(rhs), lhs @ rhs
        assert np.array_equal(left.val, right.val) and np.array_equal(left.tan, right.tan)
    assert np.array_equal((w @ a).val, w.dot(a.val))
    with pytest.raises(TypeError):
        np.asarray(v)
    with pytest.raises(TypeError):
        w.dot(v)


def test_push_rejects_outputs_without_readable_tangents(sys_d):
    p = PhasePoint((0.3, -0.2), (0.9, 1.4))

    def object_array(q):
        out = np.empty(2, dtype=object)
        for i, v in enumerate(q.y):
            out[i] = v
        return out

    for pipeline in (object_array, lambda q: eval_jet(sys_d.L, q, order=1)):
        with pytest.raises(TypeError):
            push_direction(pipeline, p, [1.0, 0.0])
