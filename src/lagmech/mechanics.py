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

Theorem-style statements are exposed as numerical residuals; booleans
appear only in :class:`ClassificationReport` behind explicit tolerances
(absolute, scaled by 1 + max|g| at each point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, KernelInconsistency, SingularMetric
from .geometry import (
    _sode_residual,
    _spray_from_jet,
    _two_form_pieces,
    _two_form_value,
    canonical_connection_at,
    dyn_cov_deriv_g,
    metric_at,
)
from .jets import SymMatrix, eval_jet, push_direction, sym_invert, tower_vector
from .phase import PhasePoint, ScalarField, VerticalField

__all__ = [
    "MechanicalSystem",
    "EvolutionBundle",
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


def sigma_at(sys: MechanicalSystem, p: PhasePoint):
    """Force one-form components sigma_i = g_ij V^j."""
    g = metric_at(sys.L, p)
    v = tower_vector(sys.V(p.x, p.y))
    return g.entries @ v


def force_jacobian_y(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """dV^i/dy_j in one pass; column j is the derivative along e_j."""
    return push_direction(lambda q: sys.V(q.x, q.y), p, np.eye(sys.n), wrt="y")


def evolution_spray_at(sys: MechanicalSystem, p: PhasePoint):
    """Evolution semispray G^i = G0^i - (1/4) V^i."""
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    spray0 = _spray_from_jet(j, g.inverse, yv)
    v = tower_vector(sys.V(p.x, p.y))
    return spray0 - v * 0.25


def _evolution_conn(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """N^i_j = dG^i/dy_j in one pass of the evolution-spray pipeline."""
    return push_direction(lambda q: evolution_spray_at(sys, q), p, np.eye(sys.n), wrt="y")


def evolution_connection_at(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Evolution connection N^i_j = dG^i/dy_j.

    Computed by pushing the full evolution-spray pipeline and
    cross-checked against N0 - (1/4) dV/dy; the two routes must agree to
    1e-10 or :class:`~lagmech.errors.KernelInconsistency` is raised.
    """
    conn = _evolution_conn(sys, p)
    alt = canonical_connection_at(sys.L, p) - force_jacobian_y(sys, p) * 0.25
    err = np.abs(conn - alt).max()
    if err > 1e-10 * (1.0 + np.abs(conn).max()):
        raise KernelInconsistency(f"evolution connection routes disagree by {err:.3e}")
    return conn


def dissipation_power(sys: MechanicalSystem, p: PhasePoint) -> float:
    """sigma_i y^i, the rate of change of the energy along evolution curves."""
    s = sigma_at(sys, p)
    return float(s @ tower_vector(p.y))


def evolution_equation_residual(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Residual of i_S omega = -dE + sigma over the 2n basis vectors.

    The force one-form acts on x-slots only and is extended by zero on the
    fiber slots, the unique extension under which the defining equation
    of the evolution semispray closes.
    """
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    v = tower_vector(sys.V(p.x, p.y))
    spray = _spray_from_jet(j, g.inverse, yv) - v * 0.25
    sigma = g.entries @ v
    e = yv @ j.d_y - j.value
    de = np.concatenate([yv @ j.d_xy - j.d_x, yv @ j.d_yy])
    res = _sode_residual(j, yv, spray, de, sigma=sigma)
    return float(np.abs(res).max())


@dataclass
class EvolutionBundle:
    """All force-dependent pointwise tensors at one phase point.

    ``dsigma_dy[i, j]`` is dsigma_i/dy_j; its symmetric quarter is the
    dynamical covariant derivative of g along the evolution pair and its
    antisymmetric half is the helicoidal tensor:

        4 gbar_ij = J_ij + J_ji,   2 F_ij = J_ij - J_ji,  J = dsigma_dy.

    ``metric`` is the metric at the point, with its inverse.
    """

    metric: SymMatrix
    sigma: np.ndarray
    spray: np.ndarray
    conn: np.ndarray
    dsigma_dy: np.ndarray
    helicoidal: np.ndarray
    gbar: np.ndarray
    power: float


def evolution_bundle_at(sys: MechanicalSystem, p: PhasePoint, validate: bool = True) -> EvolutionBundle:
    """Assemble sigma, the evolution pair, and both parts of dsigma/dy.

    With ``validate`` the symmetric part is recomputed independently as
    the dynamical derivative of g along (spray, conn); a disagreement
    beyond 1e-8 raises :class:`~lagmech.errors.KernelInconsistency`,
    since the two routes are equal identically.
    """
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    v = tower_vector(sys.V(p.x, p.y))
    sigma = g.entries @ v
    spray = _spray_from_jet(j, g.inverse, yv) - v * 0.25
    conn = _evolution_conn(sys, p)
    dsig = push_direction(lambda q: sigma_at(sys, q), p, np.eye(sys.n), wrt="y")
    gbar = (dsig + dsig.T) * 0.25
    helicoidal = (dsig - dsig.T) * 0.5
    power = float(sigma @ yv)
    if validate:
        alt = dyn_cov_deriv_g(sys.L, p, spray, conn)
        err = np.abs(gbar - alt).max()
        if err > 1e-8 * (1.0 + np.abs(g.entries).max()):
            raise KernelInconsistency(f"metric-derivative routes disagree by {err:.3e}")
    return EvolutionBundle(
        metric=g, sigma=sigma, spray=spray, conn=conn, dsigma_dy=dsig,
        helicoidal=helicoidal, gbar=gbar, power=power,
    )


def symplectic_defect(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Failure of the evolution horizontal subbundle to be Lagrangian.

    Evaluates the Cartan 2-form on all pairs of evolution-horizontal basis
    vectors delta_i = (e_i, -N[:, i]) and returns the largest magnitude.
    Equals the helicoidal tensor entrywise up to sign, which is asserted.
    """
    n = sys.n
    eye = np.eye(n)
    bundle = evolution_bundle_at(sys, p, validate=False)
    j = eval_jet(sys.L, p, order=2)
    g2, a2 = _two_form_pieces(j)
    defect = 0.0
    for i in range(n):
        di = np.concatenate([eye[i], -bundle.conn[:, i]])
        for k in range(i + 1, n):
            dk = np.concatenate([eye[k], -bundle.conn[:, k]])
            w = _two_form_value(g2, a2, di, dk)
            if abs(w + bundle.helicoidal[i, k]) > 1e-8 * (1.0 + abs(w)):
                raise KernelInconsistency(
                    "horizontal two-form value does not match the helicoidal tensor"
                )
            defect = max(defect, abs(w))
    return defect


def _scalar_sl(sys: MechanicalSystem, q: PhasePoint):
    """S(L) = y^k dL/dx_k - 2 G^k dL/dy_k as a tower scalar pipeline."""
    j = eval_jet(sys.L, q, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(q.y)
    v = tower_vector(sys.V(q.x, q.y))
    spray = _spray_from_jet(j, g.inverse, yv) - v * 0.25
    return yv @ j.d_x - 2.0 * (spray @ j.d_y)


def _scalar_sl_free(sys: MechanicalSystem, q: PhasePoint):
    """S0(L) along the canonical spray (force ignored)."""
    j = eval_jet(sys.L, q, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(q.y)
    spray0 = _spray_from_jet(j, g.inverse, yv)
    return yv @ j.d_x - 2.0 * (spray0 @ j.d_y)


def horizontal_dL(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Horizontal derivative of L along the evolution connection.

    Route (a): dL/dx_i - N^j_i dL/dy_j, needing only first derivatives of
    validated quantities; route (b): (1/2)(d(S(L))/dy_i - sigma_i) via a
    pushed scalar pipeline.  Both are computed and reconciled to 1e-8;
    route (a) is returned.
    """
    j = eval_jet(sys.L, p, order=2)
    route_a = j.d_x - j.d_y @ _evolution_conn(sys, p)
    sigma = sigma_at(sys, p)
    dsl = push_direction(lambda q: _scalar_sl(sys, q), p, np.eye(sys.n), wrt="y")
    route_b = (dsl - sigma) * 0.5
    err = np.abs(route_a - route_b).max()
    if err > 1e-8 * (1.0 + np.abs(route_a).max()):
        raise KernelInconsistency(f"horizontal dL routes disagree by {err:.3e}")
    return route_a


def horizontal_dE(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Horizontal derivative of the energy along the evolution connection.

    Route (a): dE/dx_i - N^j_i dE/dy_j.  Route (b): the closed form
    2 g_ij (2 G0^j - N0^j_k y^k) + (1/2) g_jk dV^j/dy_i y^k.  Reconciled
    to 1e-8; route (a) is returned.
    """
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    de_x = yv @ j.d_xy - j.d_x
    de_y = yv @ j.d_yy
    route_a = de_x - de_y @ _evolution_conn(sys, p)

    spray0 = _spray_from_jet(j, g.inverse, yv)
    conn0 = canonical_connection_at(sys.L, p)
    dvdy = force_jacobian_y(sys, p)
    gy = g.entries @ yv
    route_b = 2.0 * (g.entries @ (2.0 * spray0 - conn0 @ yv)) + 0.5 * (gy @ dvdy)
    err = np.abs(route_a - route_b).max()
    if err > 1e-8 * (1.0 + np.abs(route_a).max()):
        raise KernelInconsistency(f"horizontal dE routes disagree by {err:.3e}")
    return route_a


def first_integral_conditions(sys: MechanicalSystem, p: PhasePoint):
    """Residuals of the two force conditions for conserved quantities.

    Returns ``(lagrangian_condition_residual, energy_condition_residual)``.
    When the first vanishes at every sampled point, L is a candidate first
    integral of the horizontal flow; likewise the second for the energy.
    """
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    theta = j.d_y
    ydir = [float(v) for v in p.y]

    dv_contract = push_direction(lambda q: sys.V(q.x, q.y), p, ydir, wrt="y")
    csl = push_direction(lambda q: _scalar_sl_free(sys, q), p, ydir, wrt="y")
    res_l = float(dv_contract @ theta + 2.0 * csl)

    spray0 = _spray_from_jet(j, g.inverse, yv)
    conn0 = canonical_connection_at(sys.L, p)
    dvdy = force_jacobian_y(sys, p)
    gy = g.entries @ yv
    res_e = float(gy @ (dvdy @ yv) + 4.0 * (yv @ (g.entries @ (2.0 * spray0 - conn0 @ yv))))
    return res_l, res_e


def lie_theta_residual(sys: MechanicalSystem, p: PhasePoint) -> float:
    """Residual of the Lie transport of the Cartan 1-form along the
    evolution semispray against dL + sigma, over the 2n natural basis
    vectors (the fiber slots vanish identically)."""
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    v = tower_vector(sys.V(p.x, p.y))
    spray = _spray_from_jet(j, g.inverse, yv) - v * 0.25
    sigma = g.entries @ v
    s_theta = j.d_xy @ yv - 2.0 * (j.d_yy @ spray)
    res_x = s_theta - j.d_x - sigma
    return float(np.abs(res_x).max())


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
        return {
            "dissipative_at_samples": dict(self.dissipative_at_samples),
            "metric_defect": self.metric_defect,
            "symplectic_defect": self.symplectic_defect,
            "is_metric": self.is_metric,
            "is_symplectic": self.is_symplectic,
            "tolerances": dict(self.tolerances),
            "points_tested": self.points_tested,
            "failures": list(self.failures),
        }


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
            bundle = evolution_bundle_at(sys, p, validate=False)
        except (SingularMetric, DomainError) as err:
            failures.append({"index": idx, "error": type(err).__name__, "detail": str(err)})
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
        is_metric=metric_defect <= tol,
        is_symplectic=sympl_defect <= tol,
        tolerances={"absolute": tol, "scaling": "1 + max|g|"},
        points_tested=tested,
        failures=failures,
    )
