"""The reference tower's one contraction rule behind matvec, vecmat,
vecdot and matmat, the rule the tests check the compiled programs'
tensor sums against: numpy's ``@`` to rounding, the same bits for a
point alone and in any batch, and +0.0 for an exact zero, for float
operands and for operands with tangents, which it carries by the same
rule."""

import numpy as np
import pytest

import tower
from tower import KDual

_K = 3  # tangents of a KDual operand

# each contraction with the core shapes of its operands at size n
_FORMS = {
    "matvec": lambda n: ((n, n), (n,)),
    "vecmat": lambda n: ((n,), (n, n)),
    "vecdot": lambda n: ((n,), (n,)),
    "matmat": lambda n: ((n, n), (n, n)),
}
_DUALS = [(False, False), (True, False), (False, True), (True, True)]


def _operand(rng, shape, dual, lanes=(), draw=None):
    draw = draw or (lambda size: rng.normal(size=size))
    val = draw(shape + lanes)
    return KDual(val, draw(shape + lanes + (_K,))) if dual else val


def _parts(w):
    """Values and tangents (None for a float result) as arrays."""
    if isinstance(w, KDual):
        return np.asarray(w.val), np.asarray(w.tan)
    return np.asarray(w), None


def _lane(w, lane):
    """One point of a batched operand."""
    if isinstance(w, KDual):
        return KDual(w.val[..., lane], w.tan[..., lane, :])
    return w[..., lane]


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_contractions_agree_with_matmul(form, n):
    # to 1e-14 of |a| @ |b|, the size of the terms each entry sums
    shapes = _FORMS[form]
    rng = np.random.default_rng(n)
    for da, db in _DUALS:
        a, b = (_operand(rng, s, d) for s, d in zip(shapes(n), (da, db)))
        got, ref = _parts(getattr(tower, form)(a, b)), _parts(a @ b)
        av, bv = (np.abs(w.val if isinstance(w, KDual) else w) for w in (a, b))
        size = av @ bv
        assert np.all(np.abs(got[0] - ref[0]) <= 1e-14 * size), (form, n, da, db)
        if da or db:
            at, bt = (np.abs(w.tan) if isinstance(w, KDual) else np.zeros(np.shape(w) + (_K,))
                      for w in (a, b))
            tsize = _tangent_size(av, at, bv, bt)
            assert np.all(np.abs(got[1] - ref[1]) <= 1e-14 * tsize), (form, n, da, db)


def _tangent_size(av, at, bv, bt):
    """|a'| |b| + |a| |b'| contracted as the tangent of a @ b is."""
    return (KDual(av, at) @ bv).tan + (av @ KDual(bv, bt)).tan


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("size", [1, 2, 7, 300])
def test_each_point_of_a_batch_has_its_own_bits(form, n, size):
    # the first, middle and last lane of a batch equal the one-point
    # contraction bit for bit, with both operands batched or, through the
    # rule with its core ranks given, only the left one
    shapes = _FORMS[form]
    rng = np.random.default_rng(size)
    for da, db in _DUALS:
        fn, contract = getattr(tower, form), tower._contract
        left, right = shapes(n)
        a = _operand(rng, left, da, (size,))
        b = _operand(rng, right, db, (size,))
        shared = _operand(rng, right, db)
        for other in (b, shared):
            batch = _parts(fn(a, b) if other is b else contract(a, shared, len(left), len(right)))
            for lane in sorted({0, size // 2, size - 1}):
                one = _parts(fn(_lane(a, lane), _lane(other, lane) if other is b else other))
                assert np.array_equal(batch[0][..., lane], one[0]), (form, n, lane)
                if one[1] is not None:
                    assert np.array_equal(batch[1][..., lane, :], one[1]), (form, n, lane)


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize("lanes", [(), (5,)])
def test_no_negative_zero_where_matmul_gives_positive_zero(form, lanes):
    # operands of signed zeros and small integers: many sums are an exact
    # zero, and a sum of -0.0 products is -0.0 unless it starts at +0.0.
    # A contraction never returns -0.0, in particular not where @ gives +0.0
    shapes = _FORMS[form]
    rng = np.random.default_rng(11)
    draw = lambda size: rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=size)  # noqa: E731
    for da, db in _DUALS:
        a, b = (_operand(rng, s, d, lanes, draw) for s, d in zip(shapes(3), (da, db)))
        val, tan = _parts(getattr(tower, form)(a, b))
        for lane in range(lanes[0]) if lanes else [None]:
            pa, pb = (a, b) if lane is None else (_lane(a, lane), _lane(b, lane))
            got = (val, tan) if lane is None else (
                val[..., lane], None if tan is None else tan[..., lane, :])
            for g, r in zip(got, _parts(pa @ pb)):
                if g is not None:
                    assert not np.signbit(g[g == 0.0]).any(), (form, da, db, lane)
                    plus = (r == 0.0) & ~np.signbit(r)
                    assert not np.signbit(g[plus]).any(), (form, da, db, lane)
