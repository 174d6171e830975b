"""The forward-mode jet and dual tower: the tests' reference for the
compiled derivative programs of :mod:`lagmech.compiled`.

The jet carried here is tailored to Lagrange-space geometry on a single
chart: for a scalar field f(x, y) it propagates the value, the first
derivatives in x and y, and the second derivatives in (y, y) and mixed
(y, x), as :class:`Jet` arithmetic.  Anything deeper is one extra
forward-mode layer threaded through the whole evaluation with
:func:`push_direction`: a :class:`KDual` carries float values with k
tangents on a trailing float axis, so a pass seeded with a (k, n)
direction matrix returns k directional derivatives and a full Jacobian
costs one pass.  d3f/dy3 is the y-Jacobian of the Hessian block
(:func:`hessian_y_tangent`), position derivatives of the metric its
x-Jacobian; :func:`sym_invert` carries tangents through d(A^-1) = -A^-1
dA A^-1.

A pass may also run over a batch of B points (coordinates that are
length-B float arrays): values are (B,), blocks (n, B) or (n, n, B) and
tangents (..., B, k).  Fields are evaluated by :func:`eval_expr` on
their bound trees in whatever tower their coordinates carry.  The
engine's elementary derivative sequences and its one gate and inverse
of a value matrix (:func:`lagmech.jets._invert`) are shared; everything
that propagates derivatives is this module's own, and so is
:func:`sym_invert`'s symmetrizing of a matrix before that inverse.
"""

import math
import numbers
from functools import partial
from itertools import islice

import numpy as np

from lagmech import jets
from lagmech.dsl import Bin, Call, Neg, Num, Param, Var
from lagmech.errors import DomainError, UnboundParameter
from lagmech.jets import SCALAR_FUNCTIONS, SymMatrix, _any, _each
from lagmech.jets import Jet as JetRecord
from lagmech.mechanics import MechanicalSystem
from lagmech.phase import PhasePoint, VerticalField

# ---------------------------------------------------------------------------
# dual numbers: k tangents on a trailing float axis
# ---------------------------------------------------------------------------


def _lift(v):
    """Align a value operand with the trailing tangent axis."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _widen(tan, val):
    """Broadcast a tangent block to the shape of the value it belongs to."""
    shape = np.shape(val) + tan.shape[-1:]
    return tan if tan.shape == shape else np.broadcast_to(tan, shape)


def _check_divisor(d):
    if _any(d == 0.0):
        raise DomainError("division by zero in dual evaluation")


class KDual:
    """A float value carrying k tangents, ``val + tan . (eps_1, .., eps_k)``.

    ``val`` is a float or a float64 array; ``tan`` is a float64 array of
    shape ``shape(val) + (k,)`` whose trailing axis indexes the seeded
    directions.  Arithmetic, indexing, transposition, ``@`` and ``.dot``
    follow numpy on the value axes, and numpy operands of arithmetic and
    ``@`` defer to these methods.  A KDual has no plain array form:
    ``np.asarray`` and ``ndarray.dot`` refuse it rather than build an
    object array, so tower-generic code contracts with ``@``.  ``float()``
    reads the value part of a scalar.
    """

    __slots__ = ("val", "tan")
    __array_ufunc__ = None

    def __init__(self, val, tan):
        self.val = val
        self.tan = tan

    def __repr__(self):
        return f"KDual({self.val!r}, {self.tan!r})"

    @property
    def shape(self):
        return np.shape(self.val)

    @property
    def ndim(self):
        return np.ndim(self.val)

    def __float__(self):
        return float(self.val)

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a KDual has no plain array form; contract it with @ "
                        "or read its .val and .tan parts")

    def __iter__(self):
        return (self[i] for i in range(len(self.val)))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if any(k is Ellipsis for k in key):
            return KDual(self.val[key], self.tan[key + (slice(None),)])
        return KDual(self.val[key], self.tan[key])

    @property
    def T(self):
        return self.transpose(*reversed(range(self.ndim)))

    def transpose(self, *axes):
        return KDual(self.val.transpose(axes), self.tan.transpose(axes + (len(axes),)))

    def swapaxes(self, a, b):
        return KDual(self.val.swapaxes(a, b), self.tan.swapaxes(a, b))

    def __add__(self, other):
        if isinstance(other, KDual):
            return KDual(self.val + other.val, self.tan + other.tan)
        val = self.val + other
        return KDual(val, _widen(self.tan, val))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, KDual):
            return KDual(self.val - other.val, self.tan - other.tan)
        val = self.val - other
        return KDual(val, _widen(self.tan, val))

    def __rsub__(self, other):
        val = other - self.val
        return KDual(val, _widen(-self.tan, val))

    def __neg__(self):
        return KDual(-self.val, -self.tan)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, KDual):
            return KDual(self.val * other.val,
                         self.tan * _lift(other.val) + _lift(self.val) * other.tan)
        return KDual(self.val * other, self.tan * _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, KDual):
            _check_divisor(other.val)
            v = self.val / other.val
            return KDual(v, (self.tan - _lift(v) * other.tan) / _lift(other.val))
        _check_divisor(other)
        return KDual(self.val / other, self.tan / _lift(other))

    def __rtruediv__(self, other):
        _check_divisor(self.val)
        v = other / self.val
        return KDual(v, _lift(-v / self.val) * self.tan)

    def __pow__(self, k):
        return power(self, k)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def dot(self, other):
        return _matmul(self, other)


def _matmul(a, b):
    """``a @ b`` for a 1-D or 2-D ``b`` (``a`` of any rank), either of
    which carries tangents; contracts a's last axis with b's first."""
    av = a.val if isinstance(a, KDual) else np.asarray(a)
    bv = b.val if isinstance(b, KDual) else np.asarray(b)
    tan = 0.0
    if isinstance(a, KDual):
        tan = bv.T @ a.tan
    if isinstance(b, KDual):
        t = b.tan
        tan = tan + (av @ t.reshape(t.shape[0], -1)).reshape(av.shape[:-1] + t.shape[1:])
    return KDual(av @ bv, tan)


# ---------------------------------------------------------------------------
# contractions: one rule for a point and a batch
# ---------------------------------------------------------------------------


def _expand(x, r: int, after: int, lanes: int, tangent: bool = False):
    """``x`` (core rank ``r``) with ``after`` unit axes after its core axes
    and, when it has no point axes, ``lanes`` unit ones (a tangent axis
    stays last)."""
    pad = (None,) * lanes if x.ndim - tangent == r else ()
    if not (after or pad):
        return x
    return x[(slice(None),) * r + (None,) * after + (Ellipsis,) + pad + (slice(None),) * tangent]


def _ordered(terms, axis: int):
    """The sum of ``terms`` along ``axis``, left to right from +0.0, so an
    exact zero is +0.0 (a sum that started at its first term would keep
    the sign of a -0.0 product)."""
    total, head = 0.0, (slice(None),) * axis
    for m in range(terms.shape[axis]):
        total = total + terms[head + (m,)]
    return total


def _contract(a, b, ra, rb):
    """Contract the last of a's ``ra`` core axes with the first of b's
    ``rb``: sum_m a[.., m] b[m, ..], of floats or KDuals, whose result has
    a's other core axes, then b's.  Point axes trail the core axes of
    either operand or of both, and a KDual's tangent axis trails them; a
    rank given as None is what leaves that operand the other's point axes.
    Each term is one elementwise product (a tangent term the product
    rule's two), and the terms are summed by :func:`_ordered`."""
    da, db = isinstance(a, KDual), isinstance(b, KDual)
    av = a.val if da else np.asarray(a)
    bv = b.val if db else np.asarray(b)
    ra = av.ndim - bv.ndim + rb if ra is None else ra
    rb = bv.ndim - av.ndim + ra if rb is None else rb
    lanes = max(av.ndim - ra, bv.ndim - rb)
    # (a's others, m, unit axes for b's others, points) times (m, b's others, points)
    x = _expand(av, ra, rb - 1, lanes)
    y = _expand(bv, rb, 0, lanes)
    val = _ordered(x * y, ra - 1)
    if not (da or db):
        return val
    tan = _sum(_expand(a.tan, ra, rb - 1, lanes, True) * y[..., None] if da else None,
               x[..., None] * _expand(b.tan, rb, 0, lanes, True) if db else None)
    return KDual(val, _ordered(tan, ra - 1))


def matvec(a, v):
    """``a @ v``: a matrix, or a tensor whose last core axis is contracted,
    times a vector; ``a`` carries the point axes ``v`` carries."""
    return _contract(a, v, None, 1)


def vecmat(v, a):
    """``v @ a``: a vector times a matrix or tensor; as :func:`matvec`."""
    return _contract(v, a, 1, None)


def vecdot(u, v):
    """``u @ v`` of two vectors."""
    return _contract(u, v, 1, 1)


def matmat(a, b):
    """``a @ b`` of two matrices."""
    return _contract(a, b, 2, 2)


def max_abs(a, batched: bool = False):
    """max |a| as a float, or per point (over the leading core axes) when
    ``batched``."""
    if batched:
        return np.abs(a).max(axis=tuple(range(np.ndim(a) - 1)))
    return float(np.abs(a).max())


def value_of(v):
    """Float value part of a tower scalar (an array over a batch)."""
    if isinstance(v, KDual):
        return v.val
    return v if isinstance(v, np.ndarray) else float(v)


def batch_shape(p: PhasePoint) -> tuple:
    """``(B,)`` for a batch of B points, ``()`` for a single point."""
    v = p.x[0]
    v = v.val if isinstance(v, KDual) else v
    return v.shape if isinstance(v, np.ndarray) else ()


def tower_vector(seq, lanes: tuple = ()):
    """Pack tower scalars into a float vector, or into a KDual vector when
    any of them carries tangents.  Over a batch (``lanes = (B,)``) the
    vector is (n, B) and constant entries are broadcast to every point."""
    vals = list(seq)
    vec = np.array([np.broadcast_to(value_part(v), lanes) if lanes else value_part(v)
                    for v in vals], dtype=float)
    tans = [v.tan for v in vals if isinstance(v, KDual)]
    if not tans:
        return vec
    zero = np.zeros(lanes + tans[0].shape[-1:])
    return KDual(vec, np.array([_widen(v.tan, vec[0]) if isinstance(v, KDual) else zero
                                for v in vals]))


# ---------------------------------------------------------------------------
# elementary functions through the tower
# ---------------------------------------------------------------------------
#
# A float takes f, a KDual f and f', an order-o jet o + 1 terms, or o + 2
# when its value carries tangents (Jet._compose), of the engine's
# derivative sequences.


def _real_power_term(v, b, k, pw):
    """Term k of v**b's derivative sequence, b (b-1) .. (b-k+1) v**(b-k)."""
    if k == 0 and _any(v <= 0.0):  # a later term is read after term 0
        raise DomainError("non-integer power of a non-positive base")
    c = 1.0
    for j in range(k):
        c *= b - j
    try:
        return c * pw(v, b - k)
    except OverflowError:
        raise DomainError("real power overflows") from None


def _apply(seq, v):
    """Apply the function whose derivative sequence is ``seq`` to a float,
    a KDual or a jet."""
    if isinstance(v, Jet):
        return v._compose(seq)
    if isinstance(v, KDual):
        f0, f1 = islice(seq(v.val), 2)
        return KDual(f0, _lift(f1) * v.tan)
    return next(seq(v))


def ipow(v, k: int):
    """Integer power by repeated multiplication.

    Stays smooth through zero for non-negative exponents, which plain
    ``a ** b`` through logarithms would not.  Shared by every numeric
    tower so value slots agree bit for bit across towers.
    """

    if k == 0:  # a KDual keeps its tower, with no tangent
        return KDual(np.ones_like(v.val) if isinstance(v.val, np.ndarray) else 1.0,
                     np.zeros_like(v.tan)) if isinstance(v, KDual) else 1.0
    if k < 0:  # v**-k may underflow to zero where v is not; a Jet or KDual checks its own
        d = ipow(v, -k)
        if not isinstance(d, (Jet, KDual)) and _any(d == 0.0):
            raise DomainError("division by zero")
        return 1.0 / d
    if k == 1:
        return v
    if k == 2:
        return v * v
    if k == 3:
        return v * v * v
    if k == 4:
        vv = v * v
        return vv * vv
    r = None
    base = v
    while True:
        if k & 1:
            r = base if r is None else r * base
        k >>= 1
        if not k:
            return r
        base = base * base


def power(base, exponent):
    """Generic power: integer exponents multiply out, real exponents
    require a positive base."""

    if isinstance(exponent, (int, float)) and float(exponent).is_integer():
        k = int(exponent)
        if k < 0 and _any(value_of(base.value if isinstance(base, Jet) else base) == 0.0):
            raise DomainError("zero raised to a negative power")
        return ipow(base, k)
    if isinstance(exponent, (int, float)):
        b, pw = float(exponent), partial(_each, math.pow)
        # the derivative sequence term by term, each computed when read
        return _apply(lambda v: (_real_power_term(v, b, k, pw) for k in range(4)), base)
    # exponent is itself a varying tower value: a^b = exp(b * log(a))
    return apply_function("exp", exponent * apply_function("log", base))


def apply_function(name, v):
    """Apply a named elementary function to a tower scalar or jet."""
    return _apply(SCALAR_FUNCTIONS[name], v)


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict = {}
_ZERO_CACHE: dict = {}
_SYM3_INDEX_CACHE: dict = {}


def _zeros(shape):
    z = _ZERO_CACHE.get(shape)
    if z is None:
        z = _ZERO_CACHE[shape] = np.zeros(shape)
        z.setflags(write=False)
    return z


def _basis(n, i, batched=False):
    """e_i, as a column (n, 1) that broadcasts over a batch when ``batched``."""
    e = _BASIS_CACHE.get(n)
    if e is None:
        e = _BASIS_CACHE[n] = np.eye(n)
        e.setflags(write=False)
    return e[i, :, None] if batched else e[i]


def _mirror3(t):
    """Force bitwise total symmetry on the leading (n, n, n) axes of an
    array by copying each entry from its sorted-index representative."""
    n = t.shape[0]
    idx = _SYM3_INDEX_CACHE.get(n)
    if idx is None:
        idx = _SYM3_INDEX_CACHE[n] = tuple(np.sort(np.indices((n, n, n)), axis=0))
    return t[idx]


# A block is a float array, a KDual array, or None when it is identically
# zero; the helpers below skip the arithmetic on zero blocks.


def _sum(*terms):
    """Left-to-right sum of the non-zero blocks (None if there are none)."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _diff(a, *terms):
    """``a`` minus each non-zero block, left to right."""
    for t in terms:
        if t is not None:
            a = -t if a is None else a - t
    return a


def _mul(a, s):
    return None if a is None else a * s


def _div(a, s):
    return None if a is None else a / s


def _outer(a, b):
    """Tensor product of two vector blocks, either of which may carry
    tangents; a point axis after the vector axis is kept."""
    if a is None or b is None:
        return None
    return a[:, None] * b


def _sym2(q):
    return None if q is None else q + q.swapaxes(0, 1)


def _finite(v) -> bool:
    if isinstance(v, KDual):
        return bool(np.isfinite(v.val).all() and np.isfinite(v.tan).all())
    return bool(np.isfinite(v).all())


def _full(b, shape):
    """A block broadcast to ``shape`` (its tangents to ``shape + (k,)``)."""
    if isinstance(b, KDual):
        return b if b.shape == shape else KDual(np.broadcast_to(b.val, shape),
                                                np.broadcast_to(b.tan, shape + b.tan.shape[-1:]))
    return b if np.shape(b) == shape else np.broadcast_to(b, shape)


# ---------------------------------------------------------------------------
# the jet
# ---------------------------------------------------------------------------


class Jet(JetRecord):
    """The engine's jet record with arithmetic: a truncated Taylor carrier
    for one scalar field evaluation.

    Blocks are ``None`` while identically zero, which includes every block
    above the tracked order; :meth:`finalized` zero-fills them.
    Arithmetic propagates orders 0 to 2; ``d_yyy`` is filled only by
    :func:`eval_jet` at order 3, as the y-tangent of ``d_yy``.  Under a
    push the value and each block are float, or :class:`KDual` once a
    seeded coordinate has reached them.  Instances are never mutated after
    construction.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c, n, order):
        return cls(n, order, c)

    @classmethod
    def seed_x(cls, value, i, n, order, batched=False):
        return cls(n, order, value, d_x=_basis(n, i, batched) if order >= 1 else None)

    @classmethod
    def seed_y(cls, value, i, n, order, batched=False):
        return cls(n, order, value, d_y=_basis(n, i, batched) if order >= 1 else None)

    def _const(self, c):
        return Jet.constant(c, self.n, self.order)

    def _blocks(self):
        return self.d_x, self.d_y, self.d_yy, self.d_xy

    def primal(self):
        """The jet of the value parts: what the unseeded evaluation gives."""
        return Jet(self.n, self.order, value_part(self.value), *map(value_part, self._blocks()))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.n, self.order, self.value + other.value,
                       *map(_sum, self._blocks(), other._blocks()))
        return Jet(self.n, self.order, self.value + other, *self._blocks())

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.n, self.order, self.value - other.value,
                       *map(_diff, self._blocks(), other._blocks()))
        return Jet(self.n, self.order, self.value - other, *self._blocks())

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.n, self.order, -self.value, *(_mul(b, -1.0) for b in self._blocks()))

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = self.order
        if not isinstance(other, Jet):
            return Jet(self.n, o, self.value * other, *(_mul(b, other) for b in self._blocks()))
        sv, ov = self.value, other.value
        j = Jet(self.n, o, sv * ov)
        if o >= 1:
            j.d_x = _sum(_mul(self.d_x, ov), _mul(other.d_x, sv))
            j.d_y = _sum(_mul(self.d_y, ov), _mul(other.d_y, sv))
        if o >= 2:
            j.d_yy = _sum(_mul(self.d_yy, ov), _mul(other.d_yy, sv),
                          _sym2(_outer(self.d_y, other.d_y)))
            j.d_xy = _sum(_mul(self.d_xy, ov), _mul(other.d_xy, sv),
                          _outer(self.d_y, other.d_x), _outer(other.d_y, self.d_x))
        return j

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.order
        if not isinstance(other, Jet):
            if _any(value_of(other) == 0.0):
                raise DomainError("division by zero")
            return Jet(self.n, o, self.value / other, *(_div(b, other) for b in self._blocks()))
        if _any(value_of(other.value) == 0.0):
            raise DomainError("division by zero")
        w0 = self.value / other.value
        q = 1.0 / other.value
        j = Jet(self.n, o, w0)
        if o >= 1:
            j.d_x = _mul(_diff(self.d_x, _mul(other.d_x, w0)), q)
            j.d_y = _mul(_diff(self.d_y, _mul(other.d_y, w0)), q)
        if o >= 2:
            j.d_yy = _mul(_diff(self.d_yy, _mul(other.d_yy, w0),
                                _sym2(_outer(j.d_y, other.d_y))), q)
            j.d_xy = _mul(_diff(self.d_xy, _mul(other.d_xy, w0),
                                _outer(j.d_y, other.d_x), _outer(other.d_y, j.d_x)), q)
        return j

    def __rtruediv__(self, other):
        return self._const(other) / self

    def __pow__(self, k):
        return power(self, k)

    # -- chain rule ----------------------------------------------------

    def _compose(self, seq):
        """Chain rule through the function whose derivative sequence is
        ``seq``.  When the value carries tangents so does each coefficient
        f^(m), with f^(m+1) times the value's tangent."""
        o, v = self.order, self.value
        if isinstance(v, KDual):
            fs = tuple(islice(seq(v.val), o + 2))
            f = [KDual(a, _lift(b) * v.tan) for a, b in zip(fs, fs[1:])]
        else:
            f = tuple(islice(seq(v), o + 1))
        j = Jet(self.n, o, f[0])
        if o >= 1:
            j.d_x = _mul(self.d_x, f[1])
            j.d_y = _mul(self.d_y, f[1])
        if o >= 2:
            j.d_yy = _sum(_mul(self.d_yy, f[1]), _mul(_outer(self.d_y, self.d_y), f[2]))
            j.d_xy = _sum(_mul(self.d_xy, f[1]), _mul(_outer(self.d_y, self.d_x), f[2]))
        return j

    # -- finalization ----------------------------------------------------

    def finalized(self, lanes: tuple = ()):
        """Zero-fill the zero blocks, ``d_yyy`` included, broadcast every
        block over the batch ``lanes`` (``(B,)``, or ``()`` for one point),
        and verify finiteness."""
        n = self.n
        if not _finite(self.value):
            raise DomainError("field evaluation produced a non-finite value")
        blocks = []
        for b, shape in zip((*self._blocks(), self.d_yyy),
                            ((n,), (n,), (n, n), (n, n), (n, n, n))):
            if b is None:
                b = _zeros(shape + lanes)
            elif not _finite(b):
                raise DomainError("field evaluation produced a non-finite derivative")
            elif lanes:
                b = _full(b, shape + lanes)
            blocks.append(b)
        value = _full(self.value, lanes) if lanes else self.value
        return Jet(n, self.order, value, *blocks)


# ---------------------------------------------------------------------------
# fields through the tower
# ---------------------------------------------------------------------------


def eval_expr(e, xs, ys):
    """Evaluate a bound tree over whatever tower the coordinate scalars
    live in."""
    if isinstance(e, Bin):
        if e.op == "^":
            return power(eval_expr(e.left, xs, ys), eval_expr(e.right, xs, ys))
        l, r = eval_expr(e.left, xs, ys), eval_expr(e.right, xs, ys)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        # division; towers that carry derivatives check their own divisors
        if not isinstance(l, (Jet, KDual)) and not isinstance(r, (Jet, KDual)):
            if _any(r == 0.0):
                raise DomainError("division by zero")
        return l / r
    if isinstance(e, Var):
        return (xs if e.kind == "x" else ys)[e.index - 1]
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Call):
        if e.name == "pow":
            return power(eval_expr(e.args[0], xs, ys), eval_expr(e.args[1], xs, ys))
        return apply_function(e.name, eval_expr(e.args[0], xs, ys))
    if isinstance(e, Neg):
        return -eval_expr(e.arg, xs, ys)
    if isinstance(e, Param):
        raise UnboundParameter(e.name)
    raise TypeError(f"not an expression node: {e!r}")


def call(f, xs, ys):
    """A field at coordinates of any tower: a scalar field's or each force
    component's tree through :func:`eval_expr`, or a plain callable
    ``f(xs, ys)``."""
    if isinstance(f, VerticalField):
        return [eval_expr(t, xs, ys) for t in f.trees]
    return eval_expr(f.tree, xs, ys) if hasattr(f, "tree") else f(xs, ys)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _propagate(f, p: PhasePoint, order: int) -> Jet:
    """The jet of ``f`` at ``p`` to ``order`` <= 2, in the tower ``p``
    carries and over the batch it holds: the pass behind :func:`eval_jet`."""
    n = p.n
    lanes = batch_shape(p)
    batched = bool(lanes)
    xs = [Jet.seed_x(v, i, n, order, batched) for i, v in enumerate(p.x)]
    ys = [Jet.seed_y(v, i, n, order, batched) for i, v in enumerate(p.y)]
    out = call(f, xs, ys)
    if not isinstance(out, Jet):
        out = Jet.constant(out, n, order)
    return out.finalized(lanes)


def hessian_y_tangent(j: Jet) -> np.ndarray:
    """d3f/dy_i dy_j dy_k of a jet propagated with y seeded along ``np.eye(n)``:
    the y-tangent of its ``d_yy`` block, made bitwise totally symmetric
    (over a batch, with the point axis last)."""
    t = tangent_part(j.d_yy, j.n)
    return _mirror3(np.moveaxis(t, -1, 2) if t.ndim == 4 else t)


def eval_jet(f, p: PhasePoint, order: int = 3) -> Jet:
    """Evaluate a scalar field at ``p`` carrying derivatives up to ``order``.

    Blocks above the requested order come back zero-filled, with
    ``jet.order`` recording which blocks were computed.  Order 3 runs one
    order-2 pass with y seeded along ``np.eye(n)``: its value parts, and
    ``d_yyy`` from :func:`hessian_y_tangent`.

    Raises :class:`DomainError` if the evaluation produces a non-finite
    value or derivative, and ValueError for an order outside 0..3 or for
    order 3 at a point whose coordinates already carry tangents.
    """

    if order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be 0..3, got {order}")
    if order < 3:
        return _propagate(f, p, order)
    if any(isinstance(v, KDual) for v in (*p.x, *p.y)):
        raise ValueError("an order-3 jet needs a point whose coordinates carry no tangents")
    d = _propagate(f, seed_point(p, np.eye(p.n)), 2)
    j = d.primal()
    return Jet(j.n, 3, j.value, *j._blocks(), d_yyy=hessian_y_tangent(d))


def _seed(val, tan):
    """A coordinate carrying the tangents ``tan``: (k,), or over a batch
    (k, B) with one seed per point."""
    if isinstance(val, np.ndarray):
        tan = _widen(np.moveaxis(tan, 0, -1) if tan.ndim > 1 else tan, val)
    return KDual(val, tan)


def seed_point(p: PhasePoint, seeds, wrt: str = "y") -> PhasePoint:
    """``p`` with its ``y`` (default) or ``x`` coordinates carrying the k
    tangents of a (k, n) seed matrix, column i for coordinate i; with
    ``np.eye(n)`` a pass yields the full Jacobian.  Over a batch the seeds
    are (k, n), shared by every point, or (k, n, B), one matrix per point."""
    if wrt == "y":
        return PhasePoint(p.x, tuple(_seed(value_of(v), seeds[:, i]) for i, v in enumerate(p.y)))
    if wrt == "x":
        return PhasePoint(tuple(_seed(value_of(v), seeds[:, i]) for i, v in enumerate(p.x)), p.y)
    raise ValueError("wrt must be 'x' or 'y'")


def value_part(v):
    """Float value part of a tower value; floats pass through."""
    return v.val if isinstance(v, KDual) else v


def tangent_part(out, k: int) -> np.ndarray:
    """The k tangents of a pipeline output (a KDual, a list of tower
    scalars, or a float value the seeds never reached) on a trailing axis.
    Any other output (an object array, a jet) raises TypeError."""
    if isinstance(out, (list, tuple)):
        out = tower_vector(out)
    if isinstance(out, KDual):
        return np.array(out.tan, dtype=float)
    if isinstance(out, (numbers.Real, np.ndarray)) and np.asarray(out).dtype.kind in "biuf":
        return np.zeros(np.shape(out) + (k,))
    raise TypeError(f"cannot read tangents from a {type(out).__name__} output; "
                    "return a KDual, a float array or a list of tower scalars")


def push_direction(pipeline, p: PhasePoint, direction, wrt: str = "y"):
    """Directional derivatives of an arbitrary evaluation pipeline.

    Re-runs ``pipeline`` at ``p`` with the ``y`` (default) or ``x``
    coordinates seeded along ``direction`` (see :func:`seed_point`) and
    returns the tangent part of the output.  The pipeline may involve
    jets, metric inversion, contractions: the tangents are threaded
    through all of it.

    A length-n ``direction`` returns a float array shaped like the
    pipeline output (a float for a scalar output).  A ``(k, n)`` matrix
    returns all k directional derivatives from the same pass, stacked on
    a trailing axis; with ``np.eye(n)`` that is the full Jacobian.

    The pipeline sees :class:`KDual` coordinates, so it contracts with
    ``@`` (or ``.dot`` on a KDual) and returns an output that
    :func:`tangent_part` reads; any other output raises TypeError.
    """

    n = p.n
    d = np.asarray(direction, dtype=float)
    if d.ndim not in (1, 2) or d.shape[-1] != n:
        raise ValueError("direction must be a length-n vector or a (k, n) matrix")
    seeds = d.reshape(-1, n)
    tan = tangent_part(pipeline(seed_point(p, seeds, wrt)), len(seeds))
    if d.ndim == 2:
        return tan
    return tan[..., 0] if tan.ndim > 1 else float(tan[0])


def sym_invert(m) -> SymMatrix:
    """Symmetrize, gate on rank, and invert a small dense matrix.

    The value part is symmetrized, then gated and inverted by the
    engine's one gate and inverse, :func:`lagmech.jets._invert`; tangents,
    when ``m`` carries them, follow from d(A^-1) = -A^-1 dA A^-1.  A batch
    (n, n, B) is inverted in one call, each point with the bits of its
    one-point inversion.

    Raises SingularMetric when the smallest eigenvalue magnitude falls
    below 1e-10 times the largest (at any point of a batch), and
    ValueError unless the value part is square and symmetric to 1e-12
    relative.
    """
    dual = isinstance(m, KDual)
    a = np.asarray(m.val if dual else m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[0] != a.shape[1]:
        raise ValueError("sym_invert expects a square matrix")
    norm = np.abs(a).max(axis=(0, 1))  # over a batch, per point
    at = a.swapaxes(0, 1)
    if _any(np.abs(a - at).max(axis=(0, 1)) > 1e-12 * (1.0 + norm)):
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    big = norm >= 2.0 ** 1023  # a + a^T may overflow there: halve first
    if _any(big):
        h = np.where(big, 0.5, 1.0)
        a = (a * h + at * h) * (0.5 / h)
    else:
        a = (a + at) * 0.5
    n, batched = a.shape[0], a.ndim == 3
    inverse, mn, mx = jets._invert(n, a.reshape(n * n, -1) if batched else a.ravel().tolist(),
                                   batched)
    sm = SymMatrix(a, np.reshape(inverse, a.shape), mn, mx)
    if not dual:
        return sm
    ms, inv = (m + m.swapaxes(0, 1)) * 0.5, sm.inverse
    return SymMatrix(ms, KDual(inv, -matmat(matmat(inv, ms), inv).tan),
                     sm.min_abs_eigen_estimate, sm.max_abs_eigen)


# ---------------------------------------------------------------------------
# the reference passes
# ---------------------------------------------------------------------------


def evolution_pass(sys: MechanicalSystem, p: PhasePoint):
    """The jet of L (order 2), the metric, y, V, G0 and G = G0 - V/4 at
    ``p``, as a plain tuple; sigma = g V is ``matvec(metric.entries, V)``.

    Runs in whatever tower ``p`` carries: floats at a plain point, values
    with their tangents at a seeded one, and over the batch ``p`` holds.
    Raises DomainError when V, or a tangent of V, is not finite.
    """
    lanes = batch_shape(p)
    j = eval_jet(sys.L, p, 2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y, lanes)
    spray0 = matvec(g.inverse, matvec(j.d_xy, yv) - j.d_x) * 0.25
    v = tower_vector(call(sys.V, p.x, p.y), lanes)
    if not _finite(v):
        raise DomainError("force evaluation produced a non-finite value")
    return j, g, yv, v, spray0, spray0 - v * 0.25


def jacobian(w, k: int, batched: bool) -> np.ndarray:
    """The k tangents of ``w`` as a trailing core axis, before the point
    axis of a batch."""
    t = tangent_part(w, k)
    return np.moveaxis(t, -1, -2) if batched else t


def energy_parts(j: Jet, yv):
    """E and its x- and y-differentials from a jet of L, in any tower."""
    return vecdot(yv, j.d_y) - j.value, vecmat(yv, j.d_xy) - j.d_x, vecmat(yv, j.d_yy)


def scalar_s(j: Jet, yv, spray):
    """S(L) = y^k dL/dx_k - 2 spray^k dL/dy_k from a jet of L."""
    return vecdot(yv, j.d_x) - 2.0 * vecdot(spray, j.d_y)


def metric_x_pass(L, p: PhasePoint):
    """g and its position derivatives ``dgdx[a, b, c] = dg_ab/dx_c`` from
    one jet of L with x seeded along every base direction."""
    g = eval_jet(L, seed_point(p, np.eye(p.n), wrt="x"), 2).d_yy * 0.5
    return value_part(g), jacobian(g, p.n, bool(batch_shape(p)))


def christoffel_symbols(ginv, dgdx):
    """gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h)."""
    rest = tuple(range(3, dgdx.ndim))  # the point axis of a batch
    a = dgdx + dgdx.transpose((0, 2, 1) + rest) - dgdx.transpose((2, 0, 1) + rest)
    return 0.5 * _contract(ginv, a, 2, 3)


def christoffel(L, p: PhasePoint) -> np.ndarray:
    """The formal Christoffel symbols of g from :func:`metric_x_pass`."""
    g, dgdx = metric_x_pass(L, p)
    return christoffel_symbols(sym_invert(g).inverse, dgdx)


def point_geometry(sys: MechanicalSystem, p: PhasePoint) -> dict:
    """What :class:`~lagmech.mechanics.PointGeometry` holds, from one pass
    with y seeded along ``np.eye(n)``: the value parts of the evolution
    pass and, as its tangents, the fiber Jacobians."""
    n, batched = sys.n, bool(batch_shape(p))
    j, g, yv, v, spray0, spray = evolution_pass(sys, seed_point(p, np.eye(n)))
    sigma = matvec(g.entries, v)
    jet = j.primal()
    out = {"jet": jet, "metric": SymMatrix(value_part(g.entries), value_part(g.inverse),
                                           g.min_abs_eigen_estimate, g.max_abs_eigen),
           "d_yyy": hessian_y_tangent(j),
           "dSL_dy": jacobian(scalar_s(j, yv, spray), n, batched),
           "dS0L_dy": jacobian(scalar_s(j, yv, spray0), n, batched)}
    for name, w in (("y", yv), ("V", v), ("spray0", spray0), ("spray", spray), ("sigma", sigma)):
        out[name] = value_part(w)
    for name, w in (("conn0", spray0), ("dV_dy", v), ("conn", spray), ("dsigma_dy", sigma)):
        out[name] = jacobian(w, n, batched)
    return out
