"""Forward-mode jet arithmetic and small dense linear algebra.

The jet carried here is tailored to Lagrange-space geometry on a single
chart: for a scalar field f(x, y) it propagates, exactly and to machine
precision,

* the value,
* first derivatives in x and y,
* second derivatives in (y, y) and mixed (y, x),
* third derivatives in (y, y, y).

No (x, x) block is carried; every identity in scope needs position
derivatives only to first order directly, and anything deeper (such as
position derivatives of the metric) is obtained by threading one extra
forward-mode layer through the full evaluation pipeline with
:func:`push_direction`.  That layer is a :class:`KDual`: float values
with k tangents stored on a trailing float axis, so a pass seeded with a
(k, n) direction matrix returns k directional derivatives and a full
Jacobian costs one pass.  Under a push, jet blocks stay plain float
arrays until a seeded coordinate reaches them and become KDual arrays
from then on.  :func:`sym_invert` inverts the float value part and
carries the tangents through d(A^-1) = -A^-1 dA A^-1, so directional
derivatives of quantities built from the inverse metric need no
hand-written calculus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMetric
from .phase import PhasePoint

__all__ = [
    "KDual",
    "Jet",
    "SymMatrix",
    "eval_jet",
    "push_direction",
    "seed_point",
    "value_part",
    "tangent_part",
    "sym_invert",
    "value_of",
    "tower_vector",
    "tower_concat",
    "ipow",
    "power",
    "apply_function",
    "SCALAR_FUNCTIONS",
]


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
    if np.ndim(d) == 0 and d == 0.0:
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


def value_of(v):
    """Float value part of a tower scalar."""
    return v.val if isinstance(v, KDual) else float(v)


def tower_vector(seq):
    """Pack tower scalars into a float vector, or into a KDual vector when
    any of them carries tangents."""
    vals = list(seq)
    vec = np.array([v.val if isinstance(v, KDual) else float(v) for v in vals])
    tans = [v.tan for v in vals if isinstance(v, KDual)]
    if not tans:
        return vec
    zero = np.zeros_like(tans[0])
    return KDual(vec, np.array([v.tan if isinstance(v, KDual) else zero for v in vals]))


def tower_concat(blocks):
    """``np.concatenate`` of 1-D blocks, any of which may carry tangents."""
    tans = [b.tan for b in blocks if isinstance(b, KDual)]
    if not tans:
        return np.concatenate(blocks)
    k = tans[0].shape[-1]
    return KDual(np.concatenate([b.val if isinstance(b, KDual) else b for b in blocks]),
                 np.concatenate([b.tan if isinstance(b, KDual) else np.zeros(np.shape(b) + (k,))
                                 for b in blocks]))


# ---------------------------------------------------------------------------
# elementary functions on the value tower (floats and duals)
# ---------------------------------------------------------------------------


def s_sqrt(v):
    if isinstance(v, KDual):
        if v.val <= 0.0:
            raise DomainError("sqrt requires a positive argument for derivatives")
        s = math.sqrt(v.val)
        return KDual(s, 0.5 / s * v.tan)
    if v < 0.0:
        raise DomainError("sqrt of a negative value")
    return math.sqrt(v)


def s_sin(v):
    if isinstance(v, KDual):
        return KDual(math.sin(v.val), math.cos(v.val) * v.tan)
    return math.sin(v)


def s_cos(v):
    if isinstance(v, KDual):
        return KDual(math.cos(v.val), -math.sin(v.val) * v.tan)
    return math.cos(v)


def s_tan(v):
    if isinstance(v, KDual):
        t = math.tan(v.val)
        return KDual(t, (1.0 + t * t) * v.tan)
    return math.tan(v)


def s_exp(v):
    if isinstance(v, KDual):
        e = math.exp(v.val)
        return KDual(e, e * v.tan)
    return math.exp(v)


def s_log(v):
    if isinstance(v, KDual):
        if v.val <= 0.0:
            raise DomainError("log of a non-positive value")
        return KDual(math.log(v.val), v.tan / v.val)
    if v <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(v)


SCALAR_FUNCTIONS = {
    "sqrt": s_sqrt,
    "sin": s_sin,
    "cos": s_cos,
    "tan": s_tan,
    "exp": s_exp,
    "log": s_log,
}


def ipow(v, k: int):
    """Integer power by repeated multiplication.

    Stays smooth through zero for non-negative exponents, which plain
    ``a ** b`` through logarithms would not.  Shared by every numeric
    tower so value slots agree bit for bit across towers.
    """

    if k == 0:
        return 1.0
    if k < 0:
        return 1.0 / ipow(v, -k)
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
        if k < 0 and value_of(base.value if isinstance(base, Jet) else base) == 0.0:
            raise DomainError("zero raised to a negative power")
        return ipow(base, k)
    if isinstance(exponent, (int, float)):
        b = float(exponent)
        if isinstance(base, Jet):
            return base.pow_real(b)
        if isinstance(base, KDual):
            if base.val <= 0.0:
                raise DomainError("non-integer power of a non-positive base")
            f0 = math.pow(base.val, b)
            return KDual(f0, b * math.pow(base.val, b - 1.0) * base.tan)
        if base <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        return math.pow(base, b)
    # exponent is itself a varying tower value: a^b = exp(b * log(a))
    return apply_function("exp", exponent * apply_function("log", base))


def apply_function(name, v):
    """Apply a named elementary function to a tower scalar or jet."""
    if isinstance(v, Jet):
        return getattr(v, name)()
    return SCALAR_FUNCTIONS[name](v)


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict = {}
_ZERO_CACHE: dict = {}
_SYM3_INDEX_CACHE: dict = {}


def _zeros(shape):
    z = _ZERO_CACHE.get(shape)
    if z is None:
        z = np.zeros(shape)
        z.setflags(write=False)
        _ZERO_CACHE[shape] = z
    return z


def _basis(n, i):
    e = _BASIS_CACHE.get((n, i))
    if e is None:
        e = np.zeros(n)
        e[i] = 1.0
        e.setflags(write=False)
        _BASIS_CACHE[(n, i)] = e
    return e


def _sym3_indices(n):
    """Index arrays that map every (i, j, k) to its sorted permutation."""
    idx = _SYM3_INDEX_CACHE.get(n)
    if idx is None:
        grid = np.indices((n, n, n)).reshape(3, -1)
        s = np.sort(grid, axis=0)
        idx = (s[0].reshape(n, n, n), s[1].reshape(n, n, n), s[2].reshape(n, n, n))
        _SYM3_INDEX_CACHE[n] = idx
    return idx


def _mirror3(t):
    """Force bitwise total symmetry by copying each entry from its
    sorted-index representative."""
    if t is None:
        return None
    i, j, k = _sym3_indices(t.shape[0])
    return t[i, j, k]


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
    """Tensor product of two blocks, either of which may carry tangents."""
    if a is None or b is None:
        return None
    if isinstance(a, KDual) or isinstance(b, KDual):
        return a[(Ellipsis,) + (None,) * b.ndim] * b
    return np.multiply.outer(a, b)


def _sym2(q):
    return None if q is None else q + q.T


def _sym_yy_y(a, b):
    """Symmetrized a_{ij} b_k over the three placements of the single index:
    a_ij b_k + a_ik b_j + a_jk b_i."""
    r = _outer(a, b)
    return None if r is None else r + r.transpose(0, 2, 1) + r.transpose(2, 0, 1)


def _sym_y_yy(a, b):
    """Symmetrized a_i b_{jk} over the three placements of the single index:
    a_i b_jk + a_j b_ik + a_k b_ij."""
    p = _outer(a, b)
    return None if p is None else p + p.transpose(1, 0, 2) + p.transpose(1, 2, 0)


def _finite(v) -> bool:
    if isinstance(v, KDual):
        return bool(np.isfinite(v.val).all() and np.isfinite(v.tan).all())
    return bool(np.isfinite(v).all())


# ---------------------------------------------------------------------------
# the jet
# ---------------------------------------------------------------------------


class Jet:
    """Truncated Taylor carrier for one scalar field evaluation.

    Blocks (``None`` while identically zero, which includes every block
    above the tracked order; zero-filled by :meth:`finalized`):

    ``value``            scalar
    ``d_x[i]``           df/dx_i
    ``d_y[i]``           df/dy_i
    ``d_yy[i, j]``       d2f/dy_i dy_j           (bitwise symmetric)
    ``d_xy[i, j]``       d2f/dy_i dx_j           (row = y index)
    ``d_yyy[i, j, k]``   d3f/dy_i dy_j dy_k      (bitwise totally symmetric)

    Under a push the value and each block are float, or :class:`KDual`
    once a seeded coordinate has reached them.  Supports ``+ - * / **``
    against jets of the same shape and plain numbers, plus the elementary
    functions of the expression language.  Instances are never mutated
    after construction.
    """

    __slots__ = ("n", "order", "value", "d_x", "d_y", "d_yy", "d_xy", "d_yyy")

    def __init__(self, n, order, value, d_x=None, d_y=None, d_yy=None, d_xy=None, d_yyy=None):
        self.n = n
        self.order = order
        self.value = value
        self.d_x = d_x
        self.d_y = d_y
        self.d_yy = d_yy
        self.d_xy = d_xy
        self.d_yyy = d_yyy

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c, n, order):
        return cls(n, order, c)

    @classmethod
    def seed_x(cls, value, i, n, order):
        return cls(n, order, value, d_x=_basis(n, i) if order >= 1 else None)

    @classmethod
    def seed_y(cls, value, i, n, order):
        return cls(n, order, value, d_y=_basis(n, i) if order >= 1 else None)

    def _const(self, c):
        return Jet.constant(c, self.n, self.order)

    def _blocks(self):
        return self.d_x, self.d_y, self.d_yy, self.d_xy, self.d_yyy

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
        if o >= 3:
            j.d_yyy = _mirror3(_sum(_mul(self.d_yyy, ov), _mul(other.d_yyy, sv),
                                    _sym_yy_y(self.d_yy, other.d_y),
                                    _sym_y_yy(self.d_y, other.d_yy)))
        return j

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.order
        if not isinstance(other, Jet):
            if value_of(other) == 0.0:
                raise DomainError("division by zero")
            return Jet(self.n, o, self.value / other, *(_div(b, other) for b in self._blocks()))
        if value_of(other.value) == 0.0:
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
        if o >= 3:
            j.d_yyy = _mirror3(_mul(_diff(self.d_yyy, _mul(other.d_yyy, w0),
                                          _sym_yy_y(j.d_yy, other.d_y),
                                          _sym_y_yy(j.d_y, other.d_yy)), q))
        return j

    def __rtruediv__(self, other):
        return self._const(other) / self

    def __pow__(self, k):
        return power(self, k)

    # -- chain rule ----------------------------------------------------

    def _compose(self, f0, f1, f2=None, f3=None):
        o = self.order
        j = Jet(self.n, o, f0)
        if o >= 1:
            j.d_x = _mul(self.d_x, f1)
            j.d_y = _mul(self.d_y, f1)
        if o >= 2:
            j.d_yy = _sum(_mul(self.d_yy, f1), _mul(_outer(self.d_y, self.d_y), f2))
            j.d_xy = _sum(_mul(self.d_xy, f1), _mul(_outer(self.d_y, self.d_x), f2))
        if o >= 3:
            cube = _outer(_outer(self.d_y, self.d_y), self.d_y)
            j.d_yyy = _mirror3(_sum(_mul(self.d_yyy, f1),
                                    _mul(_sym_yy_y(self.d_yy, self.d_y), f2),
                                    _mul(cube, f3)))
        return j

    def sqrt(self):
        v = self.value
        if value_of(v) <= 0.0:
            raise DomainError("sqrt requires a positive argument for derivatives")
        s = s_sqrt(v)
        f1 = 0.5 / s
        f2 = f3 = None
        if self.order >= 2:
            f2 = -0.25 / (s * v)
        if self.order >= 3:
            f3 = 0.375 / (s * v * v)
        return self._compose(s, f1, f2, f3)

    def sin(self):
        s = s_sin(self.value)
        c = s_cos(self.value)
        return self._compose(s, c, -s, -c)

    def cos(self):
        s = s_sin(self.value)
        c = s_cos(self.value)
        return self._compose(c, -s, -c, s)

    def tan(self):
        t = s_tan(self.value)
        sec2 = 1.0 + t * t
        f2 = f3 = None
        if self.order >= 2:
            f2 = 2.0 * t * sec2
        if self.order >= 3:
            f3 = 2.0 * sec2 * (1.0 + 3.0 * t * t)
        return self._compose(t, sec2, f2, f3)

    def exp(self):
        e = s_exp(self.value)
        return self._compose(e, e, e, e)

    def log(self):
        if value_of(self.value) <= 0.0:
            raise DomainError("log of a non-positive value")
        f1 = 1.0 / self.value
        f2 = f3 = None
        if self.order >= 2:
            f2 = -(f1 * f1)
        if self.order >= 3:
            f3 = 2.0 * (f1 * f1 * f1)
        return self._compose(s_log(self.value), f1, f2, f3)

    def pow_real(self, b: float):
        v = self.value
        if value_of(v) <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        f0 = power(v, b)
        f1 = b * power(v, b - 1.0)
        f2 = f3 = None
        if self.order >= 2:
            f2 = b * (b - 1.0) * power(v, b - 2.0)
        if self.order >= 3:
            f3 = b * (b - 1.0) * (b - 2.0) * power(v, b - 3.0)
        return self._compose(f0, f1, f2, f3)

    # -- finalization ----------------------------------------------------

    def finalized(self):
        """Zero-fill the zero blocks and verify finiteness."""
        n = self.n
        if not _finite(self.value):
            raise DomainError("field evaluation produced a non-finite value")
        blocks = []
        for b, shape in zip(self._blocks(), ((n,), (n,), (n, n), (n, n), (n, n, n))):
            if b is None:
                b = _zeros(shape)
            elif not _finite(b):
                raise DomainError("field evaluation produced a non-finite derivative")
            blocks.append(b)
        return Jet(n, self.order, self.value, *blocks)

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def eval_jet(f, p: PhasePoint, order: int = 3) -> Jet:
    """Evaluate a scalar field at ``p`` carrying derivatives up to ``order``.

    Blocks above the requested order come back zero-filled, with
    ``jet.order`` recording which blocks were actually propagated.

    Raises
    ------
    DomainError
        If the evaluation produces a non-finite value or derivative.
    """

    if order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be 0..3, got {order}")
    n = p.n
    xs = [Jet.seed_x(v, i, n, order) for i, v in enumerate(p.x)]
    ys = [Jet.seed_y(v, i, n, order) for i, v in enumerate(p.y)]
    out = f(xs, ys)
    if not isinstance(out, Jet):
        out = Jet.constant(out, n, order)
    return out.finalized()


def seed_point(p: PhasePoint, seeds, wrt: str = "y") -> PhasePoint:
    """``p`` with its ``y`` (default) or ``x`` coordinates carrying the k
    tangents of a (k, n) seed matrix, column i for coordinate i; with
    ``np.eye(n)`` a pass yields the full Jacobian."""
    if wrt == "y":
        return PhasePoint(p.x, tuple(KDual(value_of(v), seeds[:, i]) for i, v in enumerate(p.y)))
    if wrt == "x":
        return PhasePoint(tuple(KDual(value_of(v), seeds[:, i]) for i, v in enumerate(p.x)), p.y)
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


# ---------------------------------------------------------------------------
# symmetric inversion with the tangents carried through
# ---------------------------------------------------------------------------


@dataclass
class SymMatrix:
    """A symmetric matrix with its inverse and a rank diagnostic.

    ``entries @ inverse`` equals the identity to roundoff scaled by the
    condition number.  Under a push the entries and the inverse are
    :class:`KDual`; the eigenvalue estimates always refer to the float
    value part.
    """

    entries: np.ndarray
    inverse: np.ndarray
    min_abs_eigen_estimate: float
    max_abs_eigen: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _inverse(a):
    """Inverse of a symmetric float matrix, in closed form up to 2x2."""
    if a.shape[0] == 1:
        return 1.0 / a
    if a.shape[0] == 2:
        p, b, d = a[0, 0], a[0, 1], a[1, 1]
        return np.array([[d, -b], [-b, p]]) / (p * d - b * b)
    return np.linalg.inv(a)


def sym_invert(m, rel_tol: float = 1e-10) -> SymMatrix:
    """Symmetrize, gate on rank, and invert a small dense matrix.

    The value part is inverted in floats; tangents, when ``m`` carries
    them, follow from d(A^-1) = -A^-1 dA A^-1.

    Raises
    ------
    SingularMetric
        When the smallest eigenvalue magnitude of the value part falls
        below ``rel_tol`` times the largest; beyond that point the inverse
        amplifies noise past every tolerance used downstream.
    ValueError
        If the input is not symmetric to 1e-12 relative.
    """

    dual = isinstance(m, KDual)
    a = m.val if dual else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_invert expects a square matrix")
    norm = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-12 * (1.0 + norm):
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    a = (a + a.T) * 0.5
    if a.shape[0] == 1:
        mn = mx = abs(a[0, 0])
    elif a.shape[0] == 2:
        # closed-form symmetric 2x2 spectrum
        p, b, d = a[0, 0], a[0, 1], a[1, 1]
        half_tr = 0.5 * (p + d)
        disc = math.sqrt(max(0.0, (0.5 * (p - d)) ** 2 + b * b))
        e1, e2 = abs(half_tr + disc), abs(half_tr - disc)
        mn, mx = min(e1, e2), max(e1, e2)
    else:
        eig = np.linalg.eigvalsh(a)
        mn = float(np.abs(eig).min())
        mx = float(np.abs(eig).max())
    if mx == 0.0 or mn < rel_tol * mx:
        raise SingularMetric(
            f"metric rank failure: |eig| range [{mn:.3e}, {mx:.3e}]",
            min_abs_eigen=mn,
            max_abs_eigen=mx,
        )
    inv = _inverse(a)
    if not dual:
        return SymMatrix(a, inv, mn, mx)
    ms = (m + m.T) * 0.5
    return SymMatrix(ms, KDual(inv, -(inv @ ms @ inv).tan), mn, mx)
