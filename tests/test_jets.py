"""Kernel tests: the engine's jets against exact values and the FD oracle,
its inversion, and the reference tower's own arithmetic and pushes."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tower
from lagmech.dsl import bind_scalar, parse
from lagmech.errors import DomainError, SingularMetric
from lagmech.compiled import _EXPR
from lagmech.jets import _invert, _rank_gate, eval_jet, ipow, sym_invert
from lagmech.phase import PhasePoint
from oracle import fd_oracle
from tower import KDual, push_direction
import routes

SQRT2 = math.sqrt(2.0)


def field(source, n):
    return bind_scalar(parse(source, n), n)


def quartic_root_field():
    return field("(y1^4 + y2^4)^0.5", 2)


# ---------------------------------------------------------------------------
# eval_jet
# ---------------------------------------------------------------------------


def test_jet_quadratic_form():
    f = field("y1*y1 + y2*y2", 2)
    j = eval_jet(f, PhasePoint((0.0, 0.0), (1.0, 2.0)), order=2)
    assert j.value == 5.0
    assert np.array_equal(j.d_y, [2.0, 4.0])
    assert np.array_equal(j.d_yy, [[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(j.d_x, [0.0, 0.0])


def test_jet_constant_field():
    f = field("7", 2)
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


def test_jet_needs_a_field_with_a_tree():
    with pytest.raises(TypeError):
        eval_jet(lambda x, y: y[0] * y[0], PhasePoint((0.0,), (1.0,)), order=2)


def test_order_three_refuses_a_seeded_point(sys_d):
    # the reference tower's order 3 seeds y itself and would drop the
    # tangents the point carries
    p = PhasePoint((0.3, -0.2), (0.9, 1.4))
    for wrt in ("x", "y"):
        with pytest.raises(ValueError):
            push_direction(lambda q: tower.eval_jet(sys_d.L, q, order=3).d_yyy, p, [1.0, 0.0],
                           wrt=wrt)


def test_jet_symmetry_is_bitwise(rng):
    f = field("y1*y2*y3 + (y1^4 + y2^4 + y3^4)^0.5 + x1*y2^3", 3)
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
    f = lambda x, y: 3.0 * y[0] * y[0] - y[0] * y[1]
    fd = fd_oracle(f, PhasePoint((0.0, 0.0), (0.7, -0.4)), order=2, h=1e-4)
    expected = np.array([[6.0, -1.0], [-1.0, 0.0]])
    assert np.abs(fd.d_yy - expected).max() < 1e-7


def test_fd_sine_first_derivative():
    f = lambda x, y: math.sin(y[0])
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
    p = PhasePoint((1.0, 0.0), (1.0, 1.0))
    col = push_direction(lambda q: routes.canonical_spray(sys_b.L, q), p, [1.0, 0.0])
    h = 1e-5
    up = routes.canonical_spray(sys_b.L, PhasePoint((1.0, 0.0), (1.0 + h, 1.0)))
    dn = routes.canonical_spray(sys_b.L, PhasePoint((1.0, 0.0), (1.0 - h, 1.0)))
    fd = (up - dn) / (2.0 * h)
    assert np.abs(col - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


def test_push_jacobian_reconstructs_metric(sys_c, samples_c):
    # the y-Jacobian of grad_y L is the full velocity Hessian, i.e. 2 g
    for p in samples_c[:6]:
        jac = push_direction(lambda q: tower.eval_jet(sys_c.L, q, order=1).d_y, p, np.eye(2))
        j = eval_jet(sys_c.L, p, order=2)
        assert np.abs(jac - j.d_yy).max() <= 1e-10 * (1.0 + np.abs(j.d_yy).max())


def test_push_through_matrix_inverse_matches_identity_rule(sys_c):
    # d(g^-1) along a direction equals -g^-1 (dg) g^-1
    p = PhasePoint((0.0, 0.0), (0.9, 1.4))
    d = [1.0, -0.5]
    dinv = push_direction(lambda q: routes.metric(sys_c.L, q).inverse, p, d)
    g = routes.metric(sys_c.L, p)
    dg = push_direction(lambda q: routes.metric(sys_c.L, q).entries, p, d)
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
    g = routes.metric(sys_b.L, PhasePoint((1.0, 0.0), (0.3, 0.4)))
    assert np.abs(g.entries - np.diag([2.0, 1.0])).max() < 1e-14
    assert np.abs(g.inverse - np.diag([0.5, 1.0])).max() < 1e-14


@pytest.mark.parametrize("k", [-980, -600, -450, 0, 450, 600, 1000])
def test_2x2_gate_and_inverse_are_scale_free(k):
    # 2^k A for a regular A and a singular one (eigenvalue ratio 1e-12), on
    # one point and on a batch: a power of two scales the eigenvalue range
    # by 2^k and the inverse by 2^-k exactly, however far the closed forms
    # would leave the float range on the entries themselves
    s = 2.0 ** k
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    ref = sym_invert(a)
    one = sym_invert(a * s)
    assert one.inverse.tobytes() == (ref.inverse / s).tobytes()
    assert (one.min_abs_eigen_estimate, one.max_abs_eigen) == \
        (ref.min_abs_eigen_estimate * s, ref.max_abs_eigen * s)
    batch = sym_invert(np.stack([a * s, a, a * 2.0 * s], axis=-1))
    for i, m in enumerate((a * s, a, a * 2.0 * s)):
        assert batch.inverse[..., i].tobytes() == sym_invert(m).inverse.tobytes()

    def rank_failure(m):
        with pytest.raises(SingularMetric) as err:
            sym_invert(m)
        return err.value.min_abs_eigen, err.value.max_abs_eigen

    singular = np.diag([1.0, 1e-12])
    lo, hi = rank_failure(singular)
    assert rank_failure(singular * s) == (lo * s, hi * s)
    assert rank_failure(np.stack([a, singular * s], axis=-1)) == (lo * s, hi * s)


@pytest.mark.parametrize("a, inverse", [
    # the determinant overflowed to inf, and the inverse printed zeros
    ([[1e160, 0.0], [0.0, 1e160 + 0.01]], [[1e-160, 0.0], [0.0, 1.0 / (1e160 + 0.01)]]),
    # the determinant underflowed to 0, and the inverse printed nulls
    ([[1e-170, 0.0], [0.0, 1e-170]], [[1e170, 0.0], [0.0, 1e170]]),
    ([[1e-170, 3e-171], [3e-171, 2e-170]], [[2e170 / 1.91, -3e169 / 1.91], [-3e169 / 1.91, 1e170 / 1.91]]),
])
def test_2x2_inverse_out_of_the_closed_forms_range(a, inverse):
    got = sym_invert(np.array(a)).inverse
    assert np.allclose(got, inverse, rtol=1e-15, atol=0.0)


def _random_metrics(rng, n, count):
    """Random symmetric n x n matrices Q diag(lam) Q^T, scaled by 1e-3 to
    1e3, whose |lam| range within 10 has its smallest |lam| made 1e-7,
    3e-10 (regular), 3e-11 (below the rank gate) or 0 times the largest."""
    for k in range(count):
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam = rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 10.0, size=n)
        lam *= 10.0 ** rng.uniform(-3, 3)
        ratio = (None, 1e-7, 3e-10, 3e-11, 0.0)[k % 5]
        if ratio is not None:
            lam[0] = np.copysign(ratio * np.abs(lam).max(), lam[0])
        a = q @ np.diag(lam) @ q.T
        yield (a + a.T) * 0.5


def _numpy_gate_and_inverse(a):
    """(inverse, min |eig|, max |eig|) by numpy, or None for the inverse
    where the range fails the rank gate."""
    eig = np.abs(np.linalg.eigvalsh(a))
    mn, mx = eig.min(), eig.max()
    return (None if mn == 0.0 or mn < 1e-10 * mx else np.linalg.inv(a)), mn, mx


def _gate_and_inverse(n, e, batched):
    try:
        inverse, mn, mx = _invert(n, e, batched)
    except SingularMetric as err:
        return None, err.min_abs_eigen, err.max_abs_eigen
    return np.reshape(inverse, (n, n) + (-1,) * batched), mn, mx


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_invert_matches_numpy(rng, n):
    # the one gate and inverse against numpy's eigvalsh and inv: the inverse
    # to 1e-13 x the condition number, the |eig| range to roundoff, and a
    # SingularMetric with the same range where numpy's range fails the gate
    mats = list(_random_metrics(rng, n, 40))
    outcomes = []
    for a in mats:
        ref, ref_mn, ref_mx = _numpy_gate_and_inverse(a)
        got, mn, mx = outcome = _gate_and_inverse(n, a.ravel().tolist(), False)
        outcomes.append(outcome)
        assert abs(mn - ref_mn) <= 1e-13 * ref_mx and abs(mx - ref_mx) <= 1e-13 * ref_mx
        assert (got is None) == (ref is None)
        if ref is not None:
            cond = ref_mx / ref_mn
            assert np.abs(got - ref).max() <= 1e-13 * cond * np.abs(ref).max()
    # over a batch: each point's bits, or the first failing point's range
    regular = [a for a, (got, _, _) in zip(mats, outcomes) if got is not None]
    for batch in (regular, mats):
        stack = np.stack(batch, axis=-1)
        got, mn, mx = _gate_and_inverse(n, list(stack.reshape(n * n, -1)), True)
        alone = [_gate_and_inverse(n, a.ravel().tolist(), False) for a in batch]
        failed = [o for o in alone if o[0] is None]
        if failed:
            assert got is None and (mn, mx) == failed[0][1:]
            continue
        assert got.tobytes() == np.stack([o[0] for o in alone], axis=-1).tobytes()
        assert mn.tolist() == [o[1] for o in alone] and mx.tolist() == [o[2] for o in alone]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invert_broadcasts_constant_entries(n):
    # a batch whose off-diagonal entries are floats shared by every point
    # (a constant metric is all floats): each point's one-point bits
    diagonal = [np.array([1.0 + i, 2.0, 0.5 * (i + 1)]) for i in range(n)]
    e = [diagonal[i] if i == k else 0.25 for i in range(n) for k in range(n)]
    got, mn, mx = _invert(n, e, True)
    for lane in range(3):
        one = _invert(n, [v[lane] if isinstance(v, np.ndarray) else v for v in e], False)
        assert np.reshape(got, (n * n, -1))[:, lane].tolist() == list(one[0])
        assert (mn[lane], mx[lane]) == one[1:]
    constant, *_ = _invert(n, [float(v) for v in np.eye(n).ravel() * 2.0], True)
    assert np.array_equal(np.reshape(constant, (n * n, -1)), np.eye(n).reshape(n * n, 1) * 0.5)


def test_importing_the_package_compiles_nothing():
    # lagmech.compiled is imported at the first pass, not with the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, lagmech; sys.exit('lagmech.compiled' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}).returncode == 0


def test_sym_invert_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_invert(np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.parametrize("n", [2, 3])
def test_sym_invert_of_entries_near_the_float_limit(n):
    # (a + a^T) * 0.5 overflowed: the entries became inf, the inverse nan,
    # and the gate let the range (nan, inf) or (nan, nan) through
    a = np.diag([1.5e308] + [1.0] * (n - 1))
    for m in (a, np.stack([np.eye(n), a], axis=-1)):
        with pytest.raises(SingularMetric) as err:
            sym_invert(m)
        assert (err.value.min_abs_eigen, err.value.max_abs_eigen) == (1.0, 1.5e308)
    # a regular one inverts, and the other points of its batch keep their bits
    big, b = np.diag([1.5e308] + [1e300] * (n - 1)), np.eye(n) + 0.25
    batch = sym_invert(np.stack([big, b], axis=-1))
    assert np.array_equal(batch.entries[..., 0], big)
    assert np.allclose(batch.inverse[..., 0], np.diag(1.0 / np.diag(big)), rtol=1e-12, atol=0.0)
    assert batch.inverse[..., 1].tobytes() == sym_invert(b).inverse.tobytes()


@pytest.mark.parametrize("mn, mx", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_rank_gate_rejects_nan(mn, mx):
    # nan < 1e-10 * x is false, so a NaN range passed the gate
    for lo, hi in ((mn, mx), (np.array([1.0, mn]), np.array([1.0, mx]))):
        with pytest.raises(SingularMetric):
            _rank_gate(lo, hi)


def test_ipow_is_the_compiled_inline_forms():
    # square-and-multiply groups k = 2, 3, 4 as the compiled programs'
    # inline forms do, so one algorithm gives their bits
    rng = np.random.default_rng(3)
    wide = (rng.uniform(-1.0, 1.0, 3000) * 10.0 ** rng.uniform(-150, 150, 3000)).tolist()
    wide += [0.0, -0.0, math.inf, -math.inf, math.nan]
    narrow = rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.uniform(-60, 60, 300)
    bits = lambda v: np.float64(v).tobytes()
    for k in (2, 3, 4):
        inline = lambda v: eval(_EXPR[k].format("v"), {"v": v})
        for v in wide:
            assert bits(ipow(v, k)) == bits(inline(v)), (v, k)
            if inline(v) == 0.0:
                with pytest.raises(DomainError):
                    ipow(v, -k)
            else:
                assert bits(ipow(v, -k)) == bits(1.0 / inline(v)), (v, -k)
        assert ipow(narrow, k).tobytes() == inline(narrow).tobytes()
        assert ipow(narrow, -k).tobytes() == (1.0 / inline(narrow)).tobytes()


def test_sym_invert_product_is_identity(rng):
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + 0.5 * np.eye(3)
        sm = sym_invert(m)
        cond = sm.max_abs_eigen / sm.min_abs_eigen_estimate
        err = np.abs(sm.entries @ sm.inverse - np.eye(3)).max()
        assert err <= 1e-10 * cond


# ---------------------------------------------------------------------------
# the reference tower: dual scalars, jets and pushes
# ---------------------------------------------------------------------------


def test_dual_arithmetic_product_rule():
    x = KDual(3.0, np.array([1.0]))
    y = x * x * x  # d/dx x^3 = 27
    assert y.val == 27.0
    assert y.tan[0] == 27.0


def test_dual_division_and_functions():
    from tower import apply_function

    x = KDual(2.0, np.array([1.0]))
    y = (1.0 + x * x) / x  # f = x + 1/x, f' = 1 - 1/x^2
    assert y.val == pytest.approx(2.5)
    assert y.tan[0] == pytest.approx(0.75)
    s = apply_function("sqrt", x)
    assert s.val == pytest.approx(math.sqrt(2.0))
    assert s.tan[0] == pytest.approx(0.5 / math.sqrt(2.0))
    lg = apply_function("log", x)
    assert lg.tan[0] == pytest.approx(0.5)
    with pytest.raises(DomainError):
        apply_function("sqrt", KDual(0.0, np.array([1.0])))


def test_overflow_raises_domain_error_in_every_tower():
    from tower import apply_function, power

    f_exp = lambda x, y: apply_function("exp", y[0])
    f_pow = lambda x, y: power(y[0], 200.5)
    for f, v, source in ((f_exp, 1000.0, "exp(y1)"), (f_pow, 1e5, "y1^200.5")):
        with pytest.raises(DomainError):
            f([0.0], [v])
        with pytest.raises(DomainError):
            f([0.0], [KDual(v, np.array([1.0]))])
        with pytest.raises(DomainError):
            tower.eval_jet(f, PhasePoint((0.0,), (v,)), order=2)
        with pytest.raises(DomainError):
            eval_jet(field(source, 1), PhasePoint((0.0,), (v,)), order=2)


def test_derivative_terms_are_computed_when_read(monkeypatch):
    from types import SimpleNamespace

    from lagmech import jets
    from tower import apply_function, power

    calls = []

    def counted(name):
        fn = getattr(math, name)
        return lambda *args: calls.append(name) or fn(*args)

    counting = SimpleNamespace(
        **{name: counted(name) for name in ("pow", "sqrt", "sin", "cos", "tan", "exp", "log")})
    monkeypatch.setattr(jets, "math", counting)
    monkeypatch.setattr(tower, "math", counting)
    f = lambda x, y: power(y[0], 0.5)
    # a float reads f, a KDual f and f', an order-o jet o + 1 terms
    for value, pows in ((2.0, 1), (KDual(2.0, np.array([1.0])), 2)):
        calls.clear()
        f([0.0], [value])
        assert calls == ["pow"] * pows
    for order in (0, 1, 2):
        calls.clear()
        tower.eval_jet(f, PhasePoint((0.0,), (2.0,)), order=order)
        assert calls == ["pow"] * (order + 1)
    calls.clear()
    apply_function("sin", 0.3)
    assert calls == ["sin"]


def test_batched_elementary_functions_match_floats():
    """Over an array each entry gets the math-module bits of its float."""
    from tower import apply_function, power

    v = np.linspace(0.05, 3.0, 37)
    for fn in (lambda t: power(t, 0.37), lambda t: power(t, -2.5),
               *(lambda t, name=name: apply_function(name, t)
                 for name in ("sqrt", "sin", "cos", "tan", "exp", "log"))):
        batch = fn(v)
        assert batch.shape == v.shape
        assert all(batch[i] == fn(float(t)) for i, t in enumerate(v))
    with pytest.raises(DomainError):
        apply_function("log", np.array([1.0, 0.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.3, 2.0),
    c=st.floats(-1.5, 1.5),
)
def test_jet_matches_fd_on_random_cubics(a, b, c):
    f = field(f"({a!r})*y1*y1*y1 + ({b!r})*y1*y1 + ({c!r})*y1", 1)
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
        return tower.eval_jet(f, q, order=1).d_y

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
    sys_, samples = _push_case(name)
    p = samples[index]
    d = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, sys_.n))

    def pipeline(q):
        return routes.evolution_spray(sys_, q)

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
    sm = tower.sym_invert(KDual(a, da))
    h = 1e-4 * np.abs(np.linalg.eigvalsh(a)).min() / np.abs(da).max()
    for c in range(2):
        up = sym_invert(a + h * da[..., c]).inverse
        dn = sym_invert(a - h * da[..., c]).inverse
        fd = (up - dn) / (2 * h)
        assert np.abs(sm.inverse.tan[..., c] - fd).max() <= 1e-6 * np.abs(fd).max()


def test_x_push_through_x_free_lagrangian_stays_float():
    from tower import Jet

    n = 3
    f = lambda x, y: y[0] * y[0] + y[1] * y[2] + y[2] ** 4
    seen = []

    def pipeline(q):
        j = tower.eval_jet(f, q, order=2)
        seen.append(j)
        return tower.sym_invert(j.d_yy * 0.5).inverse

    p = PhasePoint((0.2, -0.1, 0.4), (1.0, 0.7, 1.3))
    out = push_direction(pipeline, p, np.eye(n), wrt="x")
    assert out.shape == (n, n, n) and not out.any()
    (j,) = seen
    assert isinstance(j, Jet) and isinstance(j.value, float)
    for block in (j.d_x, j.d_y, j.d_yy, j.d_xy):
        assert type(block) is np.ndarray


def test_push_outputs_and_jet_blocks_are_float64(sys_d):
    p = PhasePoint((0.3, -0.2), (0.9, 1.4))
    jets_built = []

    def scalar_sl(q):
        j, _, yv, _, _, spray = tower.evolution_pass(sys_d, q)
        return tower.scalar_s(j, yv, spray)

    def jet_pipeline(q):
        j = tower.eval_jet(sys_d.L, q, order=2)
        jets_built.append(j)
        return j.d_yy

    pipelines = [jet_pipeline,
                 lambda q: routes.canonical_spray(sys_d.L, q),
                 lambda q: routes.sigma(sys_d, q),
                 lambda q: routes.metric(sys_d.L, q).inverse,
                 scalar_sl,
                 lambda q: tower.call(sys_d.V, q.x, q.y)]
    for pipeline in pipelines:
        for wrt in ("x", "y"):
            for d in ([1.0, -0.5], np.eye(2)):
                out = np.asarray(push_direction(pipeline, p, d, wrt=wrt))
                assert out.dtype == np.float64
    assert jets_built
    for j in jets_built:
        for block in (j.value, j.d_x, j.d_y, j.d_yy, j.d_xy):
            parts = (block.val, block.tan) if isinstance(block, KDual) else (block,)
            for part in parts:
                assert np.asarray(part).dtype == np.float64


@pytest.mark.parametrize("name", sorted(_PUSH_SYSTEMS))
@pytest.mark.parametrize("wrt", ["x", "y"])
def test_energy_push_matches_fd(name, wrt):
    sys_, samples = _push_case(name)
    p = samples[3]
    d = np.random.default_rng(7).uniform(-1.0, 1.0, (2, sys_.n))
    h = 1e-6
    # E, dE/dx and dE/dy
    for part in (0, 1, 2):
        def pipeline(q):
            return routes.energy(sys_.L, q)[part]

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

    for pipeline in (object_array, lambda q: tower.eval_jet(sys_d.L, q, order=1)):
        with pytest.raises(TypeError):
            push_direction(pipeline, p, [1.0, 0.0])
