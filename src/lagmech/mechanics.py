"""Evolution structures of a forced mechanical system (M, L, V).

The external force enters as a vertical field V^i(x, y).  Lowering it with
the metric gives the force one-form sigma_i = g_ij V^j, and everything
else follows from sigma:

* evolution semispray  G^i = G0^i - (1/4) V^i  and its connection
  N^i_j = dG^i/dy_j = N0^i_j - (1/4) dV^i/dy_j,
* dissipation power    sigma_i y^i  (the energy rate along evolution
  curves; the force is dissipative when it is non-positive),
* the symmetric part of dsigma_i/dy_j, which is 4x the dynamical
  covariant derivative of the metric along the evolution pair,
* the antisymmetric part (the helicoidal tensor), whose vanishing makes
  the evolution connection compatible with the symplectic 2-form.

All of it comes from one pipeline: the jet of L, the metric, V, G0, G
and sigma at a point.  The ODE right-hand sides run it on floats.
:class:`PointGeometry` runs it once with y seeded along the identity,
which yields the values together with every fiber Jacobian (N0, dV/dy,
N, dsigma/dy); position derivatives of g and the order-3 jet are
evaluated only when read.  Sweeps build one context per point.

Theorem-style statements are exposed as numerical residuals; booleans
appear only in :class:`ClassificationReport` behind explicit tolerances
(absolute, scaled by 1 + max|g| at each point).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularMetric, failure_record
from .geometry import (
    _canonical_pass,
    _christoffel,
    _dyn_cov,
    _energy_parts,
    _metric_x_pass,
    _sode_residual,
    _two_form_pieces,
    _two_form_value,
)
from .jets import (
    Jet,
    SymMatrix,
    eval_jet,
    seed_point,
    tangent_part,
    tower_vector,
    value_part,
)
from .phase import PhasePoint, ScalarField, VerticalField

__all__ = [
    "MechanicalSystem",
    "PointGeometry",
    "ClassificationReport",
    "sigma_at",
    "evolution_spray_at",
    "evolution_connection_at",
    "evolution_equation_residual",
    "dissipation_power",
    "evolution_bundle_at",
    "symplectic_defect",
    "horizontal_dL",
    "horizontal_dE",
    "first_integral_conditions",
    "lie_theta_residual",
    "classify",
]


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


class _Pass(NamedTuple):
    jet: Jet
    metric: SymMatrix
    y: np.ndarray
    V: np.ndarray
    spray0: np.ndarray
    spray: np.ndarray

    @property
    def sigma(self):
        # computed when read: the ODE right-hand sides never read it
        return self.metric.entries @ self.V


def _evolution_pass(sys: MechanicalSystem, p: PhasePoint) -> _Pass:
    """The jet of L, the metric, y, V, G0, G = G0 - V/4 and sigma = g V.

    Runs in whatever tower ``p`` carries: floats at a plain point, values
    with their tangents at a seeded one.
    """
    j, g, yv, spray0 = _canonical_pass(sys.L, p)
    v = tower_vector(sys.V(p.x, p.y))
    return _Pass(j, g, yv, v, spray0, spray0 - v * 0.25)


def _scalar_s(r: _Pass, spray):
    """S(L) = y^k dL/dx_k - 2 spray^k dL/dy_k from one pass."""
    return r.y @ r.jet.d_x - 2.0 * (spray @ r.jet.d_y)


class PointGeometry:
    """Every pointwise quantity of a forced system at one phase point.

    The evolution pipeline runs once, with y seeded along ``np.eye(n)``.
    The value parts of that pass are what the pipeline gives at ``p``:
    ``jet`` (L to order 2), ``metric``, ``y``, ``V``, ``spray0`` (G0),
    ``spray`` (G) and ``sigma``.  Its tangents are their fiber Jacobians:
    ``conn0`` (N0), ``dV_dy``, ``conn`` (N) and ``dsigma_dy`` (J).  The
    symmetric quarter of J is the dynamical covariant derivative of g
    along the evolution pair, its antisymmetric half the helicoidal
    tensor: 4 gbar_ij = J_ij + J_ji, 2 F_ij = J_ij - J_ji.

    Two more jet evaluations run only when read: ``dg_dx`` (x seeded
    along ``np.eye(n)``), for the Christoffel symbols and the dynamical
    derivative of g, and ``jet3`` (order 3), for the Cartan tensor and
    d3L/dy3.  A context describes its own point only; build one per point.
    """

    def __init__(self, sys: MechanicalSystem, p: PhasePoint):
        self.sys = sys
        self.p = p
        n = sys.n
        self._dual = d = _evolution_pass(sys, seed_point(p, np.eye(n)))
        sigma = d.sigma
        self.jet = d.jet.primal()
        self.metric = SymMatrix(value_part(d.metric.entries), value_part(d.metric.inverse),
                                d.metric.min_abs_eigen_estimate, d.metric.max_abs_eigen)
        self.y, self.V, self.spray0, self.spray, self.sigma = map(
            value_part, (d.y, d.V, d.spray0, d.spray, sigma))
        self.conn0, self.dV_dy, self.conn, self.dsigma_dy = (
            tangent_part(v, n) for v in (d.spray0, d.V, d.spray, sigma))

    @property
    def energy(self) -> float:
        return float(self.y @ self.jet.d_y - self.jet.value)

    @cached_property
    def dSL_dy(self) -> np.ndarray:
        """d(S(L))/dy_i along the evolution spray."""
        return tangent_part(_scalar_s(self._dual, self._dual.spray), self.sys.n)

    @cached_property
    def dS0L_dy(self) -> np.ndarray:
        """d(S0(L))/dy_i along the canonical spray."""
        return tangent_part(_scalar_s(self._dual, self._dual.spray0), self.sys.n)

    @cached_property
    def dg_dx(self) -> np.ndarray:
        """``dg_dx[a, b, c] = dg_ab/dx_c``."""
        return _metric_x_pass(self.sys.L, self.p)[1]

    @cached_property
    def jet3(self) -> Jet:
        return eval_jet(self.sys.L, self.p, order=3)

    @property
    def cartan(self) -> np.ndarray:
        return self.jet3.d_yyy * 0.25

    @cached_property
    def christoffel(self) -> np.ndarray:
        return _christoffel(self.metric.inverse, self.dg_dx)

    def dyn_cov_deriv_g(self, spray, conn) -> np.ndarray:
        """Dynamical covariant derivative of g along (spray, conn)."""
        return _dyn_cov(self.metric.entries, self.dg_dx, self.jet3.d_yyy, self.y, spray, conn)

    @property
    def gbar(self) -> np.ndarray:
        return (self.dsigma_dy + self.dsigma_dy.T) * 0.25

    @property
    def helicoidal(self) -> np.ndarray:
        return (self.dsigma_dy - self.dsigma_dy.T) * 0.5

    @property
    def power(self) -> float:
        """sigma_i y^i, the energy rate along evolution curves."""
        return float(self.sigma @ self.y)

    def horizontal_dL(self) -> np.ndarray:
        """dL/dx_i - N^j_i dL/dy_j."""
        return self.jet.d_x - self.jet.d_y @ self.conn

    def horizontal_dE(self) -> np.ndarray:
        """dE/dx_i - N^j_i dE/dy_j."""
        _, de_x, de_y = _energy_parts(self.jet, self.y)
        return de_x - de_y @ self.conn

    def horizontal_dE_closed(self) -> np.ndarray:
        """The closed form 2 g_ij (2 G0^j - N0^j_k y^k) + (1/2) g_jk dV^j/dy_i y^k."""
        g = self.metric.entries
        return (2.0 * (g @ (2.0 * self.spray0 - self.conn0 @ self.y))
                + 0.5 * ((g @ self.y) @ self.dV_dy))


def sigma_at(sys: MechanicalSystem, p: PhasePoint):
    """Force one-form components sigma_i = g_ij V^j."""
    return _evolution_pass(sys, p).sigma


def evolution_spray_at(sys: MechanicalSystem, p: PhasePoint):
    """Evolution semispray G^i = G0^i - (1/4) V^i."""
    return _evolution_pass(sys, p).spray


def evolution_connection_at(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Evolution connection N^i_j = dG^i/dy_j, read off the point's
    :class:`PointGeometry`."""
    return PointGeometry(sys, p).conn


def dissipation_power(sys: MechanicalSystem, p: PhasePoint) -> float:
    """sigma_i y^i, the rate of change of the energy along evolution curves."""
    return float(sigma_at(sys, p) @ tower_vector(p.y))


def evolution_equation_residual(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Residual of i_S omega = -dE + sigma over the 2n basis vectors.

    The force one-form acts on x-slots only and is extended by zero on the
    fiber slots, the unique extension under which the defining equation
    of the evolution semispray closes.
    """
    r = _evolution_pass(sys, p)
    return _sode_residual(r.jet, r.y, r.spray, sigma=r.sigma)


def evolution_bundle_at(sys: MechanicalSystem, p: PhasePoint) -> PointGeometry:
    """sigma, the evolution pair, and both parts of dsigma/dy: the point's
    :class:`PointGeometry`."""
    return PointGeometry(sys, p)


def _horizontal_two_form(j: Jet, conn) -> np.ndarray:
    """omega(delta_i, delta_k) on the horizontal basis delta_i = (e_i, -N[:, i])
    of a connection, as an antisymmetric n x n array."""
    n = conn.shape[0]
    eye = np.eye(n)
    g2, a2 = _two_form_pieces(j)
    w = np.zeros((n, n))
    for i in range(n):
        di = np.concatenate([eye[i], -conn[:, i]])
        for k in range(i + 1, n):
            dk = np.concatenate([eye[k], -conn[:, k]])
            w[i, k] = _two_form_value(g2, a2, di, dk)
            w[k, i] = -w[i, k]
    return w


def symplectic_defect(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Failure of the evolution horizontal subbundle to be Lagrangian.

    Evaluates the Cartan 2-form on all pairs of evolution-horizontal basis
    vectors delta_i = (e_i, -N[:, i]) and returns the largest magnitude.
    It equals the helicoidal tensor entrywise up to sign; ``verify``
    reports the difference as ``symplectic_vs_helicoidal``.
    """
    ctx = PointGeometry(sys, p)
    return float(np.abs(_horizontal_two_form(ctx.jet, ctx.conn)).max())


def horizontal_dL(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Horizontal derivative of L along the evolution connection,
    dL/dx_i - N^j_i dL/dy_j.  ``verify`` compares it with
    (1/2)(d(S(L))/dy_i - sigma_i) as ``lagrangian_horizontal_routes``.
    """
    return PointGeometry(sys, p).horizontal_dL()


def horizontal_dE(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Horizontal derivative of the energy along the evolution connection,
    dE/dx_i - N^j_i dE/dy_j.  ``verify`` compares it with the closed form
    2 g_ij (2 G0^j - N0^j_k y^k) + (1/2) g_jk dV^j/dy_i y^k as
    ``energy_horizontal_routes``.
    """
    return PointGeometry(sys, p).horizontal_dE()


def first_integral_conditions(sys: MechanicalSystem, p: PhasePoint):
    """Residuals of the two force conditions for conserved quantities.

    Returns ``(lagrangian_condition_residual, energy_condition_residual)``.
    When the first vanishes at every sampled point, L is a candidate first
    integral of the horizontal flow; likewise the second for the energy.
    """
    ctx = PointGeometry(sys, p)
    yv = ctx.y
    res_l = float((ctx.dV_dy @ yv) @ ctx.jet.d_y + 2.0 * (ctx.dS0L_dy @ yv))
    res_e = 2.0 * float(ctx.horizontal_dE_closed() @ yv)
    return res_l, res_e


def _lie_theta(r) -> float:
    """Max residual of the Lie transport of the Cartan 1-form along the
    evolution spray against dL + sigma."""
    j = r.jet
    s_theta = j.d_xy @ r.y - 2.0 * (j.d_yy @ r.spray)
    return float(np.abs(s_theta - j.d_x - r.sigma).max())


def lie_theta_residual(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Residual of the Lie transport of the Cartan 1-form along the
    evolution semispray against dL + sigma, over the 2n natural basis
    vectors (the fiber slots vanish identically)."""
    return _lie_theta(_evolution_pass(sys, p))


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
    """Sweep sample points and classify the evolution connection.

    Per-point failures (singular metric, domain exits) are recorded and
    skipped rather than aborting the sweep.  The reduction is a plain
    ordered maximum, so reports are deterministic for a fixed sample list.
    """
    metric_defect = 0.0
    sympl_defect = 0.0
    worst_power = -float("inf")
    failures = []
    tested = 0
    for idx, p in enumerate(samples):
        try:
            bundle = PointGeometry(sys, p)
        except (SingularMetric, DomainError) as err:
            failures.append(failure_record(idx, err, p))
            continue
        tested += 1
        scale = 1.0 + float(np.abs(bundle.metric.entries).max())
        metric_defect = max(metric_defect, float(np.abs(bundle.gbar).max()) / scale)
        sympl_defect = max(sympl_defect, float(np.abs(bundle.helicoidal).max()) / scale)
        worst_power = max(worst_power, bundle.power)
    if tested == 0:
        worst_power = float("nan")
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
