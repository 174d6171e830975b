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
at a point.  :class:`PointGeometry` runs the compiled ``point`` report
(:mod:`lagmech.compiled`) once, which yields the values together with
every fiber Jacobian (N0, dV/dy, N, dsigma/dy, d3L/dy3) as partials of
the same DAG the trajectories' programs are built from; the residuals,
horizontal derivatives, position derivatives of g and the Christoffel
symbols are lowered on that DAG too, and evaluated only when read (the
free system's context, ``PointGeometry(sys.free(), p)``, is the one
route to the Christoffel symbols).

A context holds one point or a batch of B points (a phase point whose
coordinates are (B,) arrays, see :func:`stack_points`).  Over a batch
the point axis comes last: scalars are (B,), vectors (n, B), matrices
(n, n, B).  The programs run the same operations on each entry of an
array as on a float, so a point gets the bits of its one-point context.
:func:`sweep` takes a list of points, stacked once, or one batch, and
runs one program per slice of up to 256 points, reducing each output
over the slice in one call.  A chunk that raises SingularMetric,
DomainError or FinslerModeError is retried in blocks of 16 points, and
a block point by point, so each failing point is recorded alone.

Sign conventions, pinned by the identity tests: a tangent vector on TM
has 2n components (x-slots, then y-slots) in the natural basis, and the
wedge product is (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).

Theorem-style statements are exposed as numerical residuals, members of
the context; booleans appear only in :class:`ClassificationReport` behind
explicit tolerances (absolute, scaled by 1 + max|g| at each point).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, FinslerModeError, SingularMetric
from .jets import _BLOCKS, Jet, SymMatrix, batch_shape
from .phase import PhasePoint, ScalarField, VerticalField

__all__ = [
    "MechanicalSystem",
    "PointGeometry",
    "ClassificationReport",
    "classify",
    "stack_points",
    "sweep",
    "each_block",
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
            raise ConfigError("field dimensions do not match the system dimension")

    def free(self) -> "MechanicalSystem":
        """The same Lagrange structure with the force switched off."""
        return MechanicalSystem(
            self.L, VerticalField.zero(self.n), self.n,
            params=dict(self.params), domain_guard=self.domain_guard,
            label=f"{self.label}|V=0" if self.label else "V=0",
        )


def _run(kind: str, L, V, p: PhasePoint, arg=2):
    """:func:`lagmech.compiled.run`, imported at the first pass so that
    importing the package compiles none of it."""
    from .compiled import run

    return run(kind, L, V, p, arg)


def _report(sys: MechanicalSystem, name: str):
    """The compiled report ``name`` of ``sys``, as a sweep's ``per_batch``."""
    return lambda p: _run("report", sys.L, sys.V, p, name)


def _contract(a, b, ra: int):
    """sum_m a[.., m] b[m, ..] of two float arrays with the same point axes
    (none at a point), m being the last of a's ``ra`` core axes and b's
    first: the terms summed left to right from +0.0, as the compiled
    programs sum them."""
    others = b.ndim - (a.ndim - ra) - 1  # b's core axes besides m
    a = a.reshape(a.shape[:ra] + (1,) * others + a.shape[ra:])
    total = 0.0
    for m in range(a.shape[ra - 1]):
        total = total + a[(slice(None),) * (ra - 1) + (m,)] * b[m]
    return total


def _member(name: str, doc: str):
    """A context member of no argument that the ``context`` report gives."""
    def member(self):
        return self._lowered[name]

    member.__name__, member.__doc__ = name, doc
    return member


class PointGeometry:
    """Every pointwise quantity of a forced system at one phase point, or
    at each point of a batch.

    The compiled ``point`` report runs once.  It gives ``jet`` (L to
    order 3), ``metric``, ``y``, ``V``, ``spray0`` (G0), ``spray`` (G),
    ``sigma``, ``energy``, ``power``, the fiber Jacobians ``conn0`` (N0),
    ``dV_dy``, ``conn`` (N), ``dsigma_dy`` (J), ``dSL_dy`` and ``dS0L_dy``
    (of S(L) along G and G0) and ``d_yyy`` (d3L/dy3), and the derived
    tensors ``cartan`` (d3L/dy3 / 4), ``gbar`` and ``helicoidal``.  The
    symmetric quarter of J is the dynamical covariant derivative of g along
    the evolution pair, its antisymmetric half the helicoidal tensor:
    4 gbar_ij = J_ij + J_ji, 2 F_ij = J_ij - J_ji.

    One more pass runs only when read (the compiled ``context`` report,
    which fails where the ``point`` report or the x-derivative pass of g
    would): ``dE``, ``dg_dx``, ``christoffel``,
    ``evolution_equation_residual()``, ``lie_theta_residual()``,
    ``symplectic_defect()``, ``first_integral_conditions()`` and the
    horizontal derivatives ``horizontal_dL()``, ``horizontal_dE()`` and
    ``horizontal_dE_closed()``.  ``omega(X, Y)`` and ``dyn_cov_deriv_g``
    contract the caller's arrays.

    ``p`` may hold a batch (:func:`stack_points`): then every field and
    member carries a trailing point axis, a scalar member is a (B,) array
    instead of a float, and each point's values are bitwise those of its
    one-point context.  ``batched`` tells the two apart.  The free
    system's context, ``PointGeometry(sys.free(), p)``, gives the canonical
    quantities of the Lagrange space.
    """

    def __init__(self, sys: MechanicalSystem, p: PhasePoint):
        self.sys = sys
        self.p = p
        self.batched = bool(batch_shape(p))
        out = _run("report", sys.L, sys.V, p, "point")
        self.jet = Jet(sys.n, 3, **{name: out.pop(name) for name in _BLOCKS})
        self.metric = SymMatrix(*(out.pop(name) for name in ("g", "g_inv", "eig_min", "eig_max")))
        vars(self).update(out)  # spray0, V, ... cartan: the fields named above
        self.d_yyy = self.jet.d_yyy
        self.y = np.array(p.y)

    @cached_property
    def _lowered(self) -> dict:
        return _run("report", self.sys.L, self.sys.V, self.p, "context")

    dE = property(_member("dE", """The energy differential in the (x, y) basis: first
        the dE/dx_k slots, then dE/dy_k = y^i d2L/dy_i dy_k."""))
    dg_dx = property(_member("dg_dx", "``dg_dx[a, b, c] = dg_ab/dx_c``."))
    christoffel = property(_member("christoffel", """gamma^i_jk =
        (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h)."""))
    horizontal_dL = _member("horizontal_dL", "dL/dx_i - N^j_i dL/dy_j.")
    horizontal_dE = _member("horizontal_dE", "dE/dx_i - N^j_i dE/dy_j.")
    horizontal_dE_closed = _member("horizontal_dE_closed", """The closed form
        2 g_ij (2 G0^j - N0^j_k y^k) + (1/2) g_jk dV^j/dy_i y^k.""")
    evolution_equation_residual = _member("evolution_equation_residual", """Residual
        of i_S omega = -dE + sigma over the 2n basis vectors.

        The force one-form acts on x-slots only and is extended by zero on
        the fiber slots, the unique extension under which the defining
        equation of the evolution semispray closes.  With no force this is
        the defining equation of the canonical spray.""")
    lie_theta_residual = _member("lie_theta_residual", """Residual of the Lie
        transport of the Cartan 1-form along the evolution semispray against
        dL + sigma, over the 2n natural basis vectors (the fiber slots
        vanish identically).""")
    symplectic_defect = _member("symplectic_defect", """Failure of the evolution
        horizontal subbundle to be Lagrangian: the largest |omega(delta_i,
        delta_k)| over the horizontal basis delta_i = (e_i, -N[:, i]).  It
        equals the helicoidal tensor entrywise up to sign; ``verify`` reports
        the difference as ``symplectic_vs_helicoidal``.""")

    def omega(self, X, Y) -> float:
        """The Cartan 2-form d(dL/dy_i dx^i) on two tangent vectors (the
        same two at every point of a batch, or one pair per point).

        In coordinates: 2 g_ij dy^j ^ dx^i plus the antisymmetrized mixed
        block (1/2)(d2L/dy_i dx_j - d2L/dy_j dx_i) dx^j ^ dx^i.
        """
        n = self.sys.n
        shape = (2 * n,) + self.y.shape[1:]
        X, Y = (np.asarray(V, dtype=float) for V in (X, Y))
        if self.batched:
            X, Y = (np.broadcast_to(V[:, None], shape) if V.ndim == 1 else V for V in (X, Y))
        if X.shape != shape or Y.shape != shape:
            raise ConfigError("tangent vectors must have 2n components")
        g = self.jet.d_yy * 0.5
        a = (self.jet.d_xy - self.jet.d_xy.swapaxes(0, 1)) * 0.5
        (xx, xy), (yx, yy) = (X[:n], X[n:]), (Y[:n], Y[n:])

        def form(m, u, v):  # u^T m v
            return _contract(_contract(u, m, 1), v, 1)

        term2 = form(a, yx, xx) - form(a, xx, yx)
        value = 2.0 * (form(g, yx, xy) - form(g, xx, yy)) + term2
        return value if self.batched else float(value)

    def dyn_cov_deriv_g(self, spray, conn) -> np.ndarray:
        """Dynamical covariant derivative of g along (spray, conn), which
        carry the context's point axes:
        S(g_ij) - g_im N^m_j - g_mj N^m_i with S(g) = y^k dg/dx_k - 2 G^k dg/dy_k."""
        s_g = (_contract(self.dg_dx, self.y, 3)
               - _contract(self.d_yyy, np.asarray(spray, dtype=float), 3))
        gn = _contract(self.metric.entries, np.asarray(conn, dtype=float), 2)
        return s_g - gn - gn.swapaxes(0, 1)

    def first_integral_conditions(self):
        """Residuals of the two force conditions for conserved quantities.

        Returns ``(lagrangian_condition_residual, energy_condition_residual)``.
        When the first vanishes at every sampled point, L is a candidate
        first integral of the horizontal flow; likewise the second for the
        energy.
        """
        return self._lowered["lagrangian_condition"], self._lowered["energy_condition"]


def stack_points(points) -> PhasePoint:
    """A batch: one phase point whose coordinates are the (B,) arrays of
    the coordinates of ``points``; a batch is returned as it is."""
    if isinstance(points, PhasePoint):
        return points
    points = list(points)
    return PhasePoint(tuple(np.array(c) for c in zip(*(p.x for p in points))),
                      tuple(np.array(c) for c in zip(*(p.y for p in points))))


def _lanes(p: PhasePoint) -> int:
    """The points ``p`` holds: B for a batch, 1 for a point, 0 for none."""
    return np.size(p.x[0]) if p.x else 0


def _take(batch: PhasePoint, lanes) -> PhasePoint:
    """A batch's points at a slice, or its one point of floats at an index."""
    return PhasePoint([c[lanes] for c in batch.x], [c[lanes] for c in batch.y])


def _blocks(batch, start, stop, per_batch):
    """Evaluate ``per_batch`` on the points start..stop of ``batch``
    together; if that raises a skipped error, on blocks of ``_BLOCK``
    points, and a block that raises point by point (the one-point path, so
    a failure carries its own message).  Yields ``(start, p, values,
    error)`` for each slice ``p`` evaluated together and each point that
    failed (``values`` None).  numpy's overflow in a pass ends in the
    pass's finiteness checks, as a DomainError."""
    p = _take(batch, start if stop - start == 1 else slice(start, stop))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = per_batch(p)
    except _SKIPPED as err:
        if stop - start == 1:
            yield start, p, None, err
        else:
            step = _BLOCK if stop - start > _BLOCK else 1
            for s in range(start, stop, step):
                yield from _blocks(batch, s, min(s + step, stop), per_batch)
    else:
        yield start, p, values, None


def each_block(samples, per_batch):
    """Yield ``(start, p, values, error)`` for each run of consecutive
    samples evaluated together, in sample order, ``start`` being the index
    of its first point.

    The samples, a list of phase points or one batch, are sliced
    ``_CHUNK`` points at a time.  ``per_batch(p)`` returns a dict of named
    values at ``p``.  A clean slice of several points yields its batch and
    values with a trailing point axis; a single point its phase point of
    floats and values, or None and the SingularMetric, DomainError or
    FinslerModeError it raised.
    """
    batch = stack_points(samples)
    size = _lanes(batch)
    for start in range(0, size, _CHUNK):
        yield from _blocks(batch, start, min(start + _CHUNK, size), per_batch)


def sweep(samples, per_batch) -> tuple:
    """Reduce the named values of ``per_batch`` (see :func:`each_block`)
    over the samples.

    Returns ``(maxima, points_tested, failures)``.  Each name keeps the
    ordered maximum ``max(previous, value)`` of its values in sample
    order, one ``max`` over the previous maximum and a chunk's column: a
    NaN first sticks, a later one is skipped.  A name no tested point
    produced is absent.  A point where ``per_batch`` raises
    SingularMetric, DomainError or FinslerModeError is skipped, and its
    failure record gives its index, the error's type and message, and the point.
    """
    maxima, failures, tested = {}, [], 0
    for start, p, values, err in each_block(samples, per_batch):
        if err is not None:
            failures.append({"index": start, "error": type(err).__name__, "detail": str(err),
                             "point": {"x": list(p.x), "y": list(p.y)}})
            continue
        tested += _lanes(p)
        for name, v in values.items():
            column = np.atleast_1d(v).tolist()
            maxima[name] = max(maxima.get(name, column[0]), *column)
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


def classify(sys: MechanicalSystem, samples, tol: float = 1e-8) -> ClassificationReport:
    """Sweep sample points and classify the evolution connection; failed
    points are recorded and skipped by :func:`sweep`."""
    worst, tested, failures = sweep(samples, _report(sys, "classify"))
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
