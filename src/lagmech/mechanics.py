"""Pointwise geometry and evolution structures of a forced system (M, L, V).

The Lagrangian gives the metric g_ij = (1/2) d2L/dy_i dy_j, the energy,
the Cartan forms and the canonical semispray
G0^i = (1/4) g^{ik} (d2L/dy_k dx_h y^h - dL/dx_k).  The external force
enters as a vertical field V^i(x, y).  Lowering it with the metric gives
the force one-form sigma_i = g_ij V^j, and everything else follows from
sigma:

* evolution semispray  G^i = G0^i - (1/4) V^i  and its connection
  N^i_j = dG^i/dy_j = N0^i_j - (1/4) dV^i/dy_j,
* dissipation power    sigma_i y^i  (the energy rate along evolution
  curves; the force is dissipative when it is non-positive),
* the symmetric part of dsigma_i/dy_j, which is 4x the dynamical
  covariant derivative of the metric along the evolution pair,
* the antisymmetric part (the helicoidal tensor), whose vanishing makes
  the evolution connection compatible with the symplectic 2-form.

All of it comes from one pass: the jet of L, the metric, y, V, G0 and G
at a point.  The ODE right-hand sides run it on floats.
:class:`PointGeometry` runs it once with y seeded along the identity,
which yields the values together with every fiber Jacobian (N0, dV/dy,
N, dsigma/dy, d3L/dy3); position derivatives of g are evaluated only
when read.

A context holds one point or a batch of B points (a phase point whose
coordinates are (B,) arrays, see :func:`stack_points`).  Over a batch
the point axis comes last: scalars are (B,), vectors (n, B), matrices
(n, n, B), and every point gets the bits its one-point context gives.
:func:`sweep` evaluates the samples in chunks of up to 256 points, one
batched context per chunk.  A chunk that raises SingularMetric,
DomainError or FinslerModeError is retried in blocks of 16 points, and
a block that raises point by point, so each failing point is found and
recorded alone while a clean chunk pays nothing.

Sign conventions, pinned by the identity tests: a tangent vector on TM
has 2n components (x-slots, then y-slots) in the natural basis, and the
wedge product is (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).

Theorem-style statements are exposed as numerical residuals, members of
the context; booleans appear only in :class:`ClassificationReport` behind
explicit tolerances (absolute, scaled by 1 + max|g| at each point).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import matmul

import numpy as np

from .errors import DomainError, FinslerModeError, SingularMetric, failure_record
from .jets import (
    Jet,
    KDual,
    _finite,
    _lanes,
    _jet,
    _propagate,
    _sym_invert,
    batch_shape,
    eval_jet,
    hessian_y_tangent,
    matmat,
    matvec,
    max_abs,
    seed_point,
    sym_invert,
    tangent_part,
    tower_vector,
    value_of,
    value_part,
    vecdot,
    vecmat,
)
from .phase import PhasePoint, ScalarField, VerticalField

__all__ = [
    "MechanicalSystem",
    "PointGeometry",
    "ClassificationReport",
    "classify",
    "stack_points",
    "sweep",
    "each_block",
    "each_point",
]

_CHUNK = 256  # points per batched pass
# A chunk that raises is retried in blocks of sqrt(_CHUNK) points, and a
# block that raises point by point: k failing points cost at most
# 1 + 16 + 16 k passes, and never more than _CHUNK + 17.
_BLOCK = 16
_SKIPPED = (SingularMetric, DomainError, FinslerModeError)


@dataclass
class MechanicalSystem:
    """A Lagrangian with an external vertical force field.

    ``domain_guard`` marks systems whose fields are only defined off the
    zero section ("y_nonzero"); samplers and integrators honor it.
    """

    L: ScalarField
    V: VerticalField
    n: int
    params: dict = field(default_factory=dict)
    domain_guard: str | None = None
    label: str = ""

    def __post_init__(self):
        if self.L.n != self.n or self.V.n != self.n:
            raise ValueError("field dimensions do not match the system dimension")

    def free(self) -> "MechanicalSystem":
        """The same Lagrange structure with the force switched off."""
        return MechanicalSystem(
            self.L, VerticalField.zero(self.n), self.n,
            params=dict(self.params), domain_guard=self.domain_guard,
            label=f"{self.label}|V=0" if self.label else "V=0",
        )


def _one_point_finite(v) -> bool:
    """Whether a one-point tower vector, with its tangents if it carries
    any, is finite: over a few entries one pass over lists costs less
    than numpy's calls."""
    if isinstance(v, KDual):
        return _one_point_finite(v.val) and _one_point_finite(v.tan.ravel())
    return all(map(math.isfinite, v.tolist()))


def _evolution_pass(sys: MechanicalSystem, p: PhasePoint):
    """The jet of L (order 2), the metric, y, V, G0 and G = G0 - V/4 at
    ``p``, as a plain tuple; sigma = g V is ``metric.entries @ V``.

    Runs in whatever tower ``p`` carries: floats at a plain point, values
    with their tangents at a seeded one, and over the batch ``p`` holds.
    Raises DomainError when V, or a tangent of V, is not finite.
    """
    lanes = batch_shape(p)
    # chosen once per pass: a plain point makes the one-point calls
    jet, invert, mv = ((_propagate, _sym_invert, matvec) if lanes
                       else (eval_jet, sym_invert, matmul))
    j = jet(sys.L, p, 2)
    g = invert(j.d_yy * 0.5)
    yv = tower_vector(p.y, lanes)
    spray0 = mv(g.inverse, mv(j.d_xy, yv) - j.d_x) * 0.25
    v = tower_vector(sys.V(p.x, p.y), lanes)
    if not (_finite(v) if lanes else _one_point_finite(v)):
        raise DomainError("force evaluation produced a non-finite value")
    return j, g, yv, v, spray0, spray0 - v * 0.25


def _tangents(w, k: int, batched: bool) -> np.ndarray:
    """The k tangents of ``w`` as a trailing core axis, before the point
    axis of a batch."""
    t = tangent_part(w, k)
    return np.moveaxis(t, -1, -2) if batched else t


def _energy_parts(j: Jet, yv):
    """E and its x- and y-differentials from a jet of L, in any tower."""
    return vecdot(yv, j.d_y) - j.value, vecmat(yv, j.d_xy) - j.d_x, vecmat(yv, j.d_yy)


def _two_form_pieces(j: Jet):
    g = j.d_yy * 0.5
    a = (j.d_xy - j.d_xy.swapaxes(0, 1)) * 0.5
    return g, a


def _two_form_value(g, a, X, Y):
    n = g.shape[0]
    xx, xy = X[:n], X[n:]
    yx, yy = Y[:n], Y[n:]
    term1 = 2.0 * (vecdot(vecmat(yx, g), xy) - vecdot(vecmat(xx, g), yy))
    term2 = vecdot(vecmat(yx, a), xx) - vecdot(vecmat(xx, a), yx)
    return term1 + term2


def _sode_residual(j: Jet, yv, spray, sigma=None) -> float:
    """Max residual of i_S omega = -dE (+ sigma) over the 2n basis vectors.

    S has natural components (y, -2 spray); sigma acts on x-slots only.
    """
    g, a = _two_form_pieces(j)
    _, de_x, de_y = _energy_parts(j, yv)
    sy = spray * (-2.0)
    res_x = matvec(g, sy) * 2.0 + matvec(a, yv) * 2.0 + de_x
    if sigma is not None:
        res_x = res_x - sigma
    res_y = matvec(g, yv) * (-2.0) + de_y
    return max_abs(np.concatenate([res_x, res_y]), yv.ndim == 2)


def _metric_x_pass(L: ScalarField, p: PhasePoint):
    """g and its position derivatives ``dgdx[a, b, c] = dg_ab/dx_c`` from
    one jet of L with x seeded along every base direction."""
    g = _jet(L, seed_point(p, np.eye(p.n), wrt="x"), 2).d_yy * 0.5
    return value_part(g), _tangents(g, p.n, bool(batch_shape(p)))


def _christoffel(ginv, dgdx):
    """gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h)."""
    rest = tuple(range(3, dgdx.ndim))  # the point axis of a batch
    a = dgdx + dgdx.transpose((0, 2, 1) + rest) - dgdx.transpose((2, 0, 1) + rest)
    if not rest:
        return 0.5 * np.einsum("ih,hjk->ijk", ginv, a)
    return 0.5 * np.moveaxis(np.einsum("bih,bhjk->bijk", _lanes(ginv, 2), _lanes(a, 3)), 0, -1)


def _horizontal_two_form(j: Jet, conn) -> np.ndarray:
    """omega(delta_i, delta_k) on the horizontal basis delta_i = (e_i, -N[:, i])
    of a connection, as an antisymmetric n x n array (n x n x B over a batch).
    Over a batch the pairs i < k are evaluated as batches, each pair of
    each point as its own lane, up to a chunk's worth of lanes at a time."""
    n = conn.shape[0]
    lanes = conn.shape[2:]
    g2, a2 = _two_form_pieces(j)
    eye = np.eye(n)
    if not lanes:
        w = np.zeros((n, n))
        for i in range(n):
            di = np.concatenate([eye[i], -conn[:, i]])
            for k in range(i + 1, n):
                dk = np.concatenate([eye[k], -conn[:, k]])
                w[i, k] = _two_form_value(g2, a2, di, dk)
                w[k, i] = -w[i, k]
        return w
    rows, cols = np.triu_indices(n, 1)
    # column i: delta_i
    delta = np.concatenate([np.broadcast_to(eye[:, :, None], (n, n) + lanes), -conn])
    step = max(1, _CHUNK // int(np.prod(lanes)))
    w = np.zeros((n, n) + lanes)
    for start in range(0, len(rows), step):
        r, c = rows[start:start + step], cols[start:start + step]
        X, Y = (delta[:, idx].reshape(2 * n, -1) for idx in (r, c))
        g, a = (np.broadcast_to(b[:, :, None], (n, n, len(r)) + lanes).reshape(n, n, -1)
                for b in (g2, a2))
        w[r, c] = _two_form_value(g, a, X, Y).reshape((len(r),) + lanes)
        w[c, r] = -w[r, c]
    return w


def _scalar_s(j: Jet, yv, spray):
    """S(L) = y^k dL/dx_k - 2 spray^k dL/dy_k from a jet of L."""
    return vecdot(yv, j.d_x) - 2.0 * vecdot(spray, j.d_y)


class PointGeometry:
    """Every pointwise quantity of a forced system at one phase point, or
    at each point of a batch.

    The evolution pipeline runs once, with y seeded along ``np.eye(n)``.
    The value parts of that pass are what the pipeline gives at ``p``:
    ``jet`` (L to order 2), ``metric``, ``y``, ``V``, ``spray0`` (G0),
    ``spray`` (G) and ``sigma``.  Its tangents are their fiber Jacobians:
    ``conn0`` (N0), ``dV_dy``, ``conn`` (N), ``dsigma_dy`` (J) and, read
    off the Hessian block, ``d_yyy`` (d3L/dy3, four times the Cartan
    tensor).  The symmetric quarter of J is the dynamical covariant
    derivative of g along the evolution pair, its antisymmetric half the
    helicoidal tensor: 4 gbar_ij = J_ij + J_ji, 2 F_ij = J_ij - J_ji.

    One more jet evaluation runs only when read: ``dg_dx`` (x seeded
    along ``np.eye(n)``), for the Christoffel symbols and the dynamical
    derivative of g.

    ``p`` may hold a batch (:func:`stack_points`): then every field and
    member carries a trailing point axis, a scalar member is a (B,) array
    instead of a float, and each point's values are bitwise those of its
    one-point context.  ``batched`` tells the two apart.

    The paper's named results are members read off the same pass:
    ``energy`` and ``dE``, the Cartan 2-form ``omega(X, Y)``, the
    residuals ``evolution_equation_residual()``, ``lie_theta_residual()``
    and ``symplectic_defect()``, the ``first_integral_conditions()`` and
    the horizontal derivatives ``horizontal_dL()`` and ``horizontal_dE()``.
    The free system's context, ``PointGeometry(sys.free(), p)``, gives the
    canonical quantities of the Lagrange space.
    """

    def __init__(self, sys: MechanicalSystem, p: PhasePoint):
        self.sys = sys
        self.p = p
        self.batched = bool(batch_shape(p))
        self._dual = _evolution_pass(sys, seed_point(p, np.eye(sys.n)))
        j, g, yv, v, spray0, spray = self._dual
        sigma = matvec(g.entries, v)
        self.jet = j.primal()
        self.metric = g.primal()
        self.y, self.V, self.spray0, self.spray, self.sigma = map(
            value_part, (yv, v, spray0, spray, sigma))
        self.conn0, self.dV_dy, self.conn, self.dsigma_dy = (
            self._jacobian(w) for w in (spray0, v, spray, sigma))

    def _jacobian(self, w) -> np.ndarray:
        return _tangents(w, self.sys.n, self.batched)

    def peak(self, a):
        """max |a| over the value axes: a float, or over a batch the (B,)
        array of each point's maximum."""
        return max_abs(a, self.batched)

    @property
    def energy(self) -> float:
        return value_of(vecdot(self.y, self.jet.d_y) - self.jet.value)

    @property
    def dE(self) -> np.ndarray:
        """The energy differential in the (x, y) basis: first the dE/dx_k
        slots, then dE/dy_k = y^i d2L/dy_i dy_k."""
        _, de_x, de_y = _energy_parts(self.jet, self.y)
        return np.concatenate([de_x, de_y])

    def omega(self, X, Y) -> float:
        """The Cartan 2-form d(dL/dy_i dx^i) on two tangent vectors (the
        same two at every point of a batch, or one pair per point).

        In coordinates: 2 g_ij dy^j ^ dx^i plus the antisymmetrized mixed
        block (1/2)(d2L/dy_i dx_j - d2L/dy_j dx_i) dx^j ^ dx^i.
        """
        shape = (2 * self.sys.n,) + self.y.shape[1:]
        X, Y = (np.asarray(V, dtype=float) for V in (X, Y))
        if self.batched:
            X, Y = (np.broadcast_to(V[:, None], shape) if V.ndim == 1 else V for V in (X, Y))
        if X.shape != shape or Y.shape != shape:
            raise ValueError("tangent vectors must have 2n components")
        return value_of(_two_form_value(*_two_form_pieces(self.jet), X, Y))

    @cached_property
    def dSL_dy(self) -> np.ndarray:
        """d(S(L))/dy_i along the evolution spray."""
        j, _, yv, _, _, spray = self._dual
        return self._jacobian(_scalar_s(j, yv, spray))

    @cached_property
    def dS0L_dy(self) -> np.ndarray:
        """d(S0(L))/dy_i along the canonical spray."""
        j, _, yv, _, spray0, _ = self._dual
        return self._jacobian(_scalar_s(j, yv, spray0))

    @cached_property
    def dg_dx(self) -> np.ndarray:
        """``dg_dx[a, b, c] = dg_ab/dx_c``."""
        return _metric_x_pass(self.sys.L, self.p)[1]

    @cached_property
    def d_yyy(self) -> np.ndarray:
        """d3L/dy_i dy_j dy_k, the y-tangent of the Hessian block."""
        return hessian_y_tangent(self._dual[0])

    @property
    def cartan(self) -> np.ndarray:
        return self.d_yyy * 0.25

    @cached_property
    def christoffel(self) -> np.ndarray:
        return _christoffel(self.metric.inverse, self.dg_dx)

    def dyn_cov_deriv_g(self, spray, conn) -> np.ndarray:
        """Dynamical covariant derivative of g along (spray, conn):
        S(g_ij) - g_im N^m_j - g_mj N^m_i with S(g) = y^k dg/dx_k - 2 G^k dg/dy_k."""
        s_g = matvec(self.dg_dx, self.y) - matvec(self.d_yyy, np.asarray(spray, dtype=float))
        gn = matmat(self.metric.entries, np.asarray(conn, dtype=float))
        return s_g - gn - gn.swapaxes(0, 1)

    @property
    def gbar(self) -> np.ndarray:
        return (self.dsigma_dy + self.dsigma_dy.swapaxes(0, 1)) * 0.25

    @property
    def helicoidal(self) -> np.ndarray:
        return (self.dsigma_dy - self.dsigma_dy.swapaxes(0, 1)) * 0.5

    @property
    def power(self) -> float:
        """sigma_i y^i, the energy rate along evolution curves."""
        return value_of(vecdot(self.sigma, self.y))

    def horizontal_dL(self) -> np.ndarray:
        """dL/dx_i - N^j_i dL/dy_j."""
        return self.jet.d_x - vecmat(self.jet.d_y, self.conn)

    def horizontal_dE(self) -> np.ndarray:
        """dE/dx_i - N^j_i dE/dy_j."""
        _, de_x, de_y = _energy_parts(self.jet, self.y)
        return de_x - vecmat(de_y, self.conn)

    def horizontal_dE_closed(self) -> np.ndarray:
        """The closed form 2 g_ij (2 G0^j - N0^j_k y^k) + (1/2) g_jk dV^j/dy_i y^k."""
        g = self.metric.entries
        return (2.0 * matvec(g, 2.0 * self.spray0 - matvec(self.conn0, self.y))
                + 0.5 * vecmat(matvec(g, self.y), self.dV_dy))

    def evolution_equation_residual(self) -> float:
        """Residual of i_S omega = -dE + sigma over the 2n basis vectors.

        The force one-form acts on x-slots only and is extended by zero on
        the fiber slots, the unique extension under which the defining
        equation of the evolution semispray closes.  With no force this is
        the defining equation of the canonical spray.
        """
        return _sode_residual(self.jet, self.y, self.spray, sigma=self.sigma)

    def lie_theta_residual(self) -> float:
        """Residual of the Lie transport of the Cartan 1-form along the
        evolution semispray against dL + sigma, over the 2n natural basis
        vectors (the fiber slots vanish identically)."""
        j = self.jet
        s_theta = matvec(j.d_xy, self.y) - 2.0 * matvec(j.d_yy, self.spray)
        return self.peak(s_theta - j.d_x - self.sigma)

    def symplectic_defect(self) -> float:
        """Failure of the evolution horizontal subbundle to be Lagrangian:
        the largest |omega(delta_i, delta_k)| over the horizontal basis
        delta_i = (e_i, -N[:, i]).  It equals the helicoidal tensor
        entrywise up to sign; ``verify`` reports the difference as
        ``symplectic_vs_helicoidal``."""
        return self.peak(_horizontal_two_form(self.jet, self.conn))

    def first_integral_conditions(self):
        """Residuals of the two force conditions for conserved quantities.

        Returns ``(lagrangian_condition_residual, energy_condition_residual)``.
        When the first vanishes at every sampled point, L is a candidate
        first integral of the horizontal flow; likewise the second for the
        energy.
        """
        res_l = value_of(vecdot(matvec(self.dV_dy, self.y), self.jet.d_y)
                         + 2.0 * vecdot(self.dS0L_dy, self.y))
        res_e = 2.0 * value_of(vecdot(self.horizontal_dE_closed(), self.y))
        return res_l, res_e


def stack_points(points) -> PhasePoint:
    """A batch: one phase point whose coordinates are the (B,) arrays of
    the coordinates of ``points``."""
    return PhasePoint(tuple(np.array(c) for c in zip(*(p.x for p in points))),
                      tuple(np.array(c) for c in zip(*(p.y for p in points))))


def _blocks(points, start, per_batch):
    """Evaluate ``per_batch`` on ``points`` as one batch; if that raises
    one of the skipped errors, on blocks of ``_BLOCK`` points, and a block
    that raises point by point.  Yields ``(start, points, values, error)``
    for each block evaluated together, and for each single point that
    failed (``values`` None).  A single point runs the one-point path, so
    a failure carries its own message."""
    if len(points) == 1:
        try:
            values = per_batch(points[0])
        except _SKIPPED as err:
            yield start, points, None, err
        else:
            yield start, points, values, None
        return
    try:
        values = per_batch(stack_points(points))
    except _SKIPPED:
        step = _BLOCK if len(points) > _BLOCK else 1
        for s in range(0, len(points), step):
            yield from _blocks(points[s:s + step], start + s, per_batch)
        return
    yield start, points, values, None


def each_block(samples, per_batch):
    """Yield ``(start, points, values, error)`` for each run of consecutive
    samples evaluated together, in sample order, ``start`` being the index
    of its first point.

    ``per_batch(p)`` returns a dict of named values at ``p``.  A clean
    chunk or block of several points yields the values of its batch, with
    a trailing point axis; a single point its one-point values, or None
    and the SingularMetric, DomainError or FinslerModeError it raised.
    """
    samples = list(samples)
    for start in range(0, len(samples), _CHUNK):
        yield from _blocks(samples[start:start + _CHUNK], start, per_batch)


def each_point(samples, per_batch):
    """Yield ``(index, point, values, error)`` for each sample in order.

    ``per_batch(p)`` returns a dict of named values at ``p``, a chunk of
    the samples as a batch (values with a trailing point axis) or a
    single point; each yielded ``values`` holds one point's slice.  A
    point where SingularMetric, DomainError or FinslerModeError is raised
    yields that error instead (``values`` None).
    """
    for start, points, values, err in each_block(samples, per_batch):
        if err is not None or len(points) == 1:
            yield start, points[0], values, err
            continue
        for lane, p in enumerate(points):
            yield start + lane, p, {name: v[..., lane] for name, v in values.items()}, None


def sweep(samples, per_batch) -> tuple:
    """Reduce the named values of ``per_batch`` (see :func:`each_point`)
    over the samples.

    Returns ``(maxima, points_tested, failures)``.  Each name keeps the
    ordered maximum ``max(previous, value)`` of its values in sample
    order; a name no tested point produced is absent.  A point where
    ``per_batch`` raises SingularMetric, DomainError or FinslerModeError
    is skipped and recorded by ``failure_record`` under its index.
    """
    maxima: dict = {}
    failures = []
    tested = 0
    for start, points, values, err in each_block(samples, per_batch):
        if err is not None:
            failures.append(failure_record(start, err, points[0]))
            continue
        tested += len(points)
        columns = [(name, np.atleast_1d(v).tolist()) for name, v in values.items()]
        for lane in range(len(points)):
            for name, col in columns:
                v = col[lane]
                maxima[name] = max(maxima[name], v) if name in maxima else v
    return maxima, tested, failures


@dataclass
class ClassificationReport:
    """Aggregated verdicts for a sample sweep.

    Defects are maxima over samples of the tensor magnitudes divided by
    (1 + max|g|) at each point; verdicts compare those scaled defects to
    the absolute tolerance.
    """

    dissipative_at_samples: dict
    metric_defect: float
    symplectic_defect: float
    is_metric: bool
    is_symplectic: bool
    tolerances: dict
    points_tested: int = 0
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _classification_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    ctx = PointGeometry(sys, p)
    scale = 1.0 + ctx.peak(ctx.metric.entries)
    return {"metric_defect": ctx.peak(ctx.gbar) / scale,
            "symplectic_defect": ctx.peak(ctx.helicoidal) / scale,
            "worst_power": ctx.power}


def classify(sys: MechanicalSystem, samples, tol: float = 1e-8) -> ClassificationReport:
    """Sweep sample points and classify the evolution connection; failed
    points are recorded and skipped by :func:`sweep`."""
    worst, tested, failures = sweep(samples, lambda p: _classification_values(sys, p))
    metric_defect = worst.get("metric_defect", 0.0)
    sympl_defect = worst.get("symplectic_defect", 0.0)
    worst_power = worst.get("worst_power", float("nan"))
    weak = tested > 0 and worst_power <= tol
    strict = tested > 0 and worst_power <= -tol
    verdict = "strict" if strict else ("weak" if weak else "none")
    return ClassificationReport(
        dissipative_at_samples={
            "verdict": verdict,
            "weak": weak,
            "strict": strict,
            "worst_power": worst_power,
        },
        metric_defect=metric_defect,
        symplectic_defect=sympl_defect,
        is_metric=tested > 0 and metric_defect <= tol,
        is_symplectic=tested > 0 and sympl_defect <= tol,
        tolerances={"absolute": tol, "scaling": "1 + max|g|"},
        points_tested=tested,
        failures=failures,
    )
