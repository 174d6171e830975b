"""Jet blocks, the elementary functions and small dense linear algebra.

A :class:`Jet` is the record of one scalar field's derivatives at a
point: the value, the first derivatives in x and y, the second
derivatives in (y, y) and mixed (y, x), and d3f/dy3.  No (x, x) block is
carried.  :func:`eval_jet` fills one from the field's compiled ``jet``
program (:mod:`lagmech.compiled`, the only code in the package that
differentiates).

Each elementary function is defined once, as its derivative sequence
f, f', f'', f''' at a float or at each entry of an array; a term is
computed only when read, and transcendentals are evaluated by
:mod:`math`, one entry at a time, so an entry of an array gets the bits
of its float.  The compiled programs, a field's value included, take
their terms from these sequences.

A quantity may also hold a batch of B points, with the point axis after
the value axes: values are (B,), blocks (n, B) or (n, n, B).  The
tensor algebra built on the blocks is lowered into the compiled
programs.  :func:`_invert` is the one gate and inverse of a metric,
which the compiled programs call; its batched 2x2 closed forms run the
float path's IEEE operations as masked array operations, so each point
keeps its bits there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .errors import ConfigError, DomainError, LagmechError, SingularMetric
from .phase import PhasePoint

__all__ = [
    "Jet",
    "SymMatrix",
    "eval_jet",
    "batch_shape",
    "ipow",
    "SCALAR_FUNCTIONS",
]


def _any(cond) -> bool:
    """Whether a condition (a bool, or a numpy bool or array of them) holds
    at a point, or at any point of a batch."""
    return cond is True or cond is not False and bool(cond.any())


def _each(fn, v, *args):
    """``fn(v, *args)`` of a float, or of each entry of an array, by plain
    float calls in one ``map``."""
    if isinstance(v, np.ndarray):
        entries = map(fn, v.ravel().tolist(), *map(repeat, args))
        return np.fromiter(entries, float, v.size).reshape(v.shape)
    return fn(v, *args)


def batch_shape(p: PhasePoint) -> tuple:
    """``(B,)`` for a batch of B points, ``()`` for a single point."""
    if not p.x:
        raise LagmechError("an empty batch: no point to evaluate")
    return getattr(p.x[0], "shape", ())


# ---------------------------------------------------------------------------
# elementary functions: one derivative sequence each
# ---------------------------------------------------------------------------
#
# Each is a generator over a float or an array v yielding f(v), f'(v),
# f''(v), f'''(v), each computed when it is read; it raises DomainError
# before a term it cannot supply at v (at any entry of an array).


def _sqrt(v):
    if _any(v < 0.0):
        raise DomainError("sqrt of a negative value")
    s = _each(math.sqrt, v)
    yield s
    if _any(v == 0.0):
        raise DomainError("sqrt requires a positive argument for derivatives")
    yield 0.5 / s
    for c in (-0.25, 0.375):  # c / (s v), c / (s v v)
        s = s * v
        if _any(s == 0.0):
            raise DomainError("sqrt's derivative overflows")
        yield c / s


def _trig(fn, v):
    """``_each(fn, v)`` of sin, cos or tan, which have no value at +-inf."""
    try:
        return _each(fn, v)
    except ValueError:
        raise DomainError(f"{fn.__name__} of an infinite value") from None


def _sin(v):
    s = _trig(math.sin, v)
    yield s
    c = _each(math.cos, v)
    yield c
    yield -s
    yield -c


def _cos(v):
    c = _trig(math.cos, v)
    yield c
    s = _each(math.sin, v)
    yield -s
    yield -c
    yield s


def _tan(v):
    t = _trig(math.tan, v)
    yield t
    sec2 = 1.0 + t * t
    yield sec2
    yield 2.0 * t * sec2
    yield 2.0 * sec2 * (1.0 + 3.0 * t * t)


def _exp(v):
    try:
        e = _each(math.exp, v)
    except OverflowError:
        raise DomainError("exp overflows") from None
    yield from (e, e, e, e)


def _log(v):
    if _any(v <= 0.0):
        raise DomainError("log of a non-positive value")
    yield _each(math.log, v)
    f1 = 1.0 / v
    yield f1
    yield -(f1 * f1)
    yield 2.0 * (f1 * f1 * f1)


def _real_power(v, b, m):
    """The first m terms of v**b's derivative sequence, b (b-1) .. (b-j+1)
    v**(b-j), at a float or entry by entry at an array."""
    if _any(v <= 0.0):
        raise DomainError("non-integer power of a non-positive base")
    pw = partial(_each, math.pow) if isinstance(v, np.ndarray) else math.pow
    c, terms = 1.0, []
    try:
        for j in range(m):
            terms.append(c * pw(v, b - j))
            c *= b - j
    except OverflowError:
        raise DomainError("real power overflows") from None
    return terms

# the named functions of the expression language, as derivative sequences
SCALAR_FUNCTIONS = {"sqrt": _sqrt, "sin": _sin, "cos": _cos,
                    "tan": _tan, "exp": _exp, "log": _log}


def ipow(v, k: int):
    """Integer power by square-and-multiply, whose products for k = 2, 3, 4
    are those of the compiled programs' inline forms.

    Stays smooth through zero for non-negative exponents, which plain
    ``a ** b`` through logarithms would not.
    """

    if k == 0:
        return 1.0
    if k < 0:  # v**-k may underflow to zero where v is not
        d = ipow(v, -k)
        if _any(d == 0.0):
            raise DomainError("division by zero")
        return 1.0 / d
    r = None
    base = v
    while True:
        if k & 1:
            r = base if r is None else r * base
        k >>= 1
        if not k:
            return r
        base = base * base


def _power(base, exponent, m: int) -> tuple:
    """The first m (1 or 2) terms of base**exponent's derivative sequence in
    the base, at floats or entry by entry over arrays: an integer exponent
    multiplies out (zero to a negative power is a DomainError), a real
    one requires a positive base."""
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        pairs = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(base, exponent)))
        shape = np.broadcast_shapes(np.shape(base), np.shape(exponent))
        return tuple(np.reshape(t, shape) for t in zip(*(_power(a, b, m) for a, b in pairs)))
    if not float(exponent).is_integer():
        return tuple(_real_power(base, float(exponent), m))
    k = int(exponent)
    if k < 0 and base == 0.0:
        raise DomainError("zero raised to a negative power")
    return (ipow(base, k),) if m == 1 else (ipow(base, k), k * ipow(base, k - 1) if k else 0.0)


# ---------------------------------------------------------------------------
# the jet record
# ---------------------------------------------------------------------------


_BLOCKS = ("value", "d_x", "d_y", "d_yy", "d_xy", "d_yyy")  # a Jet's, as named outputs


class Jet:
    """The derivative blocks of one scalar field at a point.

    ``value``            scalar
    ``d_x[i]``           df/dx_i
    ``d_y[i]``           df/dy_i
    ``d_yy[i, j]``       d2f/dy_i dy_j           (bitwise symmetric)
    ``d_xy[i, j]``       d2f/dy_i dx_j           (row = y index)
    ``d_yyy[i, j, k]``   d3f/dy_i dy_j dy_k      (bitwise totally symmetric)

    Blocks are float arrays, zero above ``order``; over a batch of B
    points each gains a trailing point axis (``value`` (B,), ``d_x``
    (n, B), ``d_yy`` (n, n, B)).  A record: it has no arithmetic.
    """

    __slots__ = ("n", "order", *_BLOCKS)

    def __init__(self, n, order, value, d_x=None, d_y=None, d_yy=None, d_xy=None, d_yyy=None):
        self.n = n
        self.order = order
        self.value = value
        self.d_x = d_x
        self.d_y = d_y
        self.d_yy = d_yy
        self.d_xy = d_xy
        self.d_yyy = d_yyy

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


def eval_jet(f, p: PhasePoint, order: int = 3) -> Jet:
    """The jet of the field ``f`` (a field carrying its bound tree, as
    :func:`lagmech.dsl.bind_scalar` makes) at ``p`` to ``order`` 0..3, by
    its compiled ``jet`` program.

    Blocks above the requested order come back zero-filled, with
    ``jet.order`` recording which blocks were computed.  Order 3 runs the
    pass of order 2 with tangents along every y direction, whose y-partials
    of ``d_yy`` give ``d_yyy``.

    Raises :class:`DomainError` if the evaluation leaves a function's
    domain or produces a non-finite value or derivative, ConfigError for an
    order outside 0..3 and TypeError for a field without a tree.
    """

    if order not in (0, 1, 2, 3):
        raise ConfigError(f"jet order must be 0..3, got {order}")
    if not hasattr(f, "tree"):
        raise TypeError("eval_jet needs a field that carries its expression tree (bind_scalar)")
    from .compiled import run  # compiled at the first pass, not at import

    return Jet(f.n, order, **run("jet", f, None, p, order))


# ---------------------------------------------------------------------------
# symmetric inversion behind a rank gate
# ---------------------------------------------------------------------------


@dataclass
class SymMatrix:
    """A symmetric matrix with its inverse and a rank diagnostic.

    ``entries @ inverse`` equals the identity to roundoff scaled by the
    condition number.  Over a batch the matrices are (n, n, B) and the
    eigenvalue estimates (B,).
    """

    entries: np.ndarray
    inverse: np.ndarray
    min_abs_eigen_estimate: float
    max_abs_eigen: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


# a symmetric [[p, b], [b, d]] with |p| + |b| + |d| in this range keeps
# the closed form of its spectrum inside the float range: its squares
# neither overflow nor, where the eigenvalues matter, underflow
_SAFE2 = (2.0 ** -450, 2.0 ** 450)
_MIN_NORMAL = 2.0 ** -1022


def _scale2(p, b, d):
    """The power of two that takes the largest of |p|, |b|, |d| (floats, or
    lane by lane of arrays) to [0.5, 1) (by 2^1023 at most; 2^-1024 for an
    infinity or a NaN, so that no finite entry overflows).  A power of two
    scales every step of the 2x2 closed forms exactly, so a rescaled
    result is the unscaled one wherever that stayed in the float range."""
    if isinstance(p, np.ndarray):
        m = np.maximum(np.maximum(abs(p), abs(b)), abs(d))
        return np.ldexp(1.0, np.where(m < math.inf, np.minimum(1023, -np.frexp(m)[1]), -1024))
    m = max(abs(p), abs(b), abs(d))
    return math.ldexp(1.0, min(1023, -math.frexp(m)[1]) if m < math.inf else -1024)


def _inverse2(p, b, d):
    """[[p, b], [b, d]]^-1 of floats, row-major; where the determinant
    overflows or leaves the normal range, s (s A)^-1 with the s of
    :func:`_scale2`."""
    c = 0.0 - b  # -b, but +0.0 where b is a zero
    det = p * d - b * b
    if _MIN_NORMAL <= abs(det) < math.inf:
        return [d / det, c / det, c / det, p / det]
    s = _scale2(p, b, d)
    p, c, d = p * s, c * s, d * s
    det = p * d - c * c
    return [d / det * s, c / det * s, c / det * s, p / det * s]


def _spectrum2(p, b, d):
    """min and max |eigenvalue| of the symmetric [[p, b], [b, d]] of floats,
    in closed form; outside ``_SAFE2`` on the entries rescaled by
    :func:`_scale2` (as LAPACK's dlaev2 scales them), so min/max is
    scale-free."""
    s = 1.0
    if not _SAFE2[0] <= abs(p) + abs(b) + abs(d) <= _SAFE2[1]:
        s = _scale2(p, b, d)
        p, b, d = p * s, b * s, d * s
    half_tr, h = abs(0.5 * (p + d)), 0.5 * (p - d)
    disc = math.sqrt(h * h + b * b)
    mx = half_tr + disc
    # where the difference cancels to zero, |det| / the larger is the smaller
    mn = abs(half_tr - disc) or mx and abs(p * d - b * b) / mx
    return mn / s, mx / s


def _lanes2(p, b, d):
    """``(inverse, min |eig|, max |eig|)`` of :func:`_inverse2` and
    :func:`_spectrum2`, ungated, lane by lane of (B,) arrays: their IEEE
    operations, each rescale on the lanes that need it (by 1.0, exactly,
    on the others) and the cancelled eigenvalue's recovery under a mask."""
    size, c = abs(p) + abs(b) + abs(d), 0.0 - b
    ok = (_SAFE2[0] <= size) & (size <= _SAFE2[1])
    s = 1.0 if ok.all() else np.where(ok, 1.0, _scale2(p, b, d))
    sp, sb, sd = p * s, b * s, d * s
    half_tr, h = abs(0.5 * (sp + sd)), 0.5 * (sp - sd)
    disc = np.sqrt(h * h + sb * sb)
    mx, mn = half_tr + disc, abs(half_tr - disc)
    mn = np.where((mn == 0.0) & (mx != 0.0), abs(sp * sd - sb * sb) / mx, mn)
    mn, mx, det = mn / s, mx / s, abs(p * d - c * c)  # c * c is b * b, bit for bit
    ok = (_MIN_NORMAL <= det) & (det < math.inf)
    s = 1.0 if ok.all() else np.where(ok, 1.0, _scale2(p, b, d))
    p, c, d = p * s, c * s, d * s
    det = p * d - c * c
    q = c / det * s
    return np.array([d / det * s, q, q, p / det * s]), mn, mx


def _rank_gate(mn, mx):
    """``(mn, mx)``, min and max |eig| (floats, or per point of a batch);
    SingularMetric when either is NaN, or the smallest is zero or below
    1e-10 x the largest (a product that underflows to zero where the
    largest is subnormal)."""
    ok = (mn > 0.0) & (mn >= 1e-10 * mx)  # false where either is NaN
    if ok is not True and (ok is False or not ok.all()):
        if isinstance(ok, np.ndarray):
            first = int(np.flatnonzero(~ok)[0])
            mn, mx = float(mn[first]), float(mx[first])
        raise SingularMetric(
            f"metric rank failure: |eig| range [{mn:.3e}, {mx:.3e}]",
            min_abs_eigen=mn,
            max_abs_eigen=mx,
        )
    return mn, mx


def _invert(n, e, batched):
    """``(inverse, min |eig|, max |eig|)`` of the symmetric matrix of row-major
    entries e behind the rank gate, the inverse row-major: n * n floats at a
    point, n * n rows of B over a batch (whose entries are (B,) arrays or
    shared floats).  Closed forms up to 2x2, on floats or, over a batch, by
    the same IEEE operations as masked array operations; numpy's beyond.
    A compiled program whose metric entries are all finite constants calls
    it once, when the program is built, and holds its output as constants."""
    if n == 2 and not batched:
        mn, mx = _rank_gate(*_spectrum2(e[0], e[1], e[3]))
        return _inverse2(e[0], e[1], e[3]), mn, mx
    if n == 1:  # at a point, or entry by entry over a batch
        mn, mx = _rank_gate(abs(e[0]), abs(e[0]))
        return [1.0 / e[0]], mn, mx
    if batched:  # n * n rows of B points, a constant entry broadcast
        e = np.array(np.broadcast_arrays(*e)).reshape(n * n, -1)
    if n == 2:
        with np.errstate(all="ignore"):  # lanes out of range: rescaled, or failing the gate
            inverse, mn, mx = _lanes2(e[0], e[1], e[3])
        return inverse, *_rank_gate(mn, mx)
    a = np.moveaxis(e.reshape(n, n, -1), -1, 0) if batched else np.array(e).reshape(n, n)
    eig = np.abs(np.linalg.eigvalsh(a))
    mn, mx = (eig.min(-1), eig.max(-1)) if batched else (float(eig.min()), float(eig.max()))
    _rank_gate(mn, mx)
    inverse = np.linalg.inv(a)
    return inverse.reshape(-1, n * n).T if batched else inverse.ravel().tolist(), mn, mx
