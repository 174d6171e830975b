"""Aggregated identity suite over a sample sweep.

Every structural identity of the engine is evaluated as a numerical
residual and reduced to its maximum over the sample set:

``canonical_spray_equation``      defining equation of the free spray
``canonical_metricity``           metric derivative along the free pair
``canonical_horizontal_two_form`` 2-form on free horizontal pairs
``evolution_spray_equation``      defining equation of the forced spray
``metric_derivative_agreement``   sigma-route vs dynamical-derivative route
``symplectic_vs_helicoidal``      2-form on forced horizontal pairs vs F
``lagrangian_horizontal_routes``  two computations of the horizontal dL
``cartan_form_transport``         Lie transport of the Cartan 1-form
``energy_horizontal_routes``      two computations of the horizontal dE
``christoffel_contraction``       spray vs Christoffel contraction (Finsler)
``finsler_energy_formula``        horizontal dE vs its force-only form (Finsler)

The last two report null for systems that fail the homogeneity gate.
Points where the metric degenerates are collected, not fatal.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FinslerModeError, SingularMetric
from .finsler import christoffel_at, homogeneity_residual_at
from .geometry import (
    _spray_from_jet,
    _two_form_pieces,
    _two_form_value,
    canonical_connection_at,
    dyn_cov_deriv_g,
    spray_equation_residual,
)
from .jets import eval_jet, push_direction, sym_invert, tower_vector
from .mechanics import (
    MechanicalSystem,
    evolution_bundle_at,
    evolution_equation_residual,
    force_jacobian_y,
    lie_theta_residual,
    _scalar_sl,
)
from .phase import PhasePoint

__all__ = ["run_verification"]


def _point_residuals(sys: MechanicalSystem, p: PhasePoint, finsler: bool) -> dict:
    n = sys.n
    eye = np.eye(n)
    out = {}
    j = eval_jet(sys.L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    scale = 1.0 + float(np.abs(g.entries).max())
    g2, a2 = _two_form_pieces(j)

    out["canonical_spray_equation"] = spray_equation_residual(sys.L, p)
    out["evolution_spray_equation"] = evolution_equation_residual(sys, p)
    out["cartan_form_transport"] = lie_theta_residual(sys, p)

    spray0 = _spray_from_jet(j, g.inverse, yv)
    conn0 = canonical_connection_at(sys.L, p)
    gbar0 = dyn_cov_deriv_g(sys.L, p, spray0, conn0)
    out["canonical_metricity"] = float(np.abs(gbar0).max()) / scale

    w0 = 0.0
    for i in range(n):
        di = np.concatenate([eye[i], -conn0[:, i]])
        for k in range(i + 1, n):
            dk = np.concatenate([eye[k], -conn0[:, k]])
            w0 = max(w0, abs(_two_form_value(g2, a2, di, dk)))
    out["canonical_horizontal_two_form"] = w0

    bundle = evolution_bundle_at(sys, p, validate=False)
    alt = dyn_cov_deriv_g(sys.L, p, bundle.spray, bundle.conn)
    out["metric_derivative_agreement"] = float(np.abs(bundle.gbar - alt).max())

    wh = 0.0
    for i in range(n):
        di = np.concatenate([eye[i], -bundle.conn[:, i]])
        for k in range(i + 1, n):
            dk = np.concatenate([eye[k], -bundle.conn[:, k]])
            w = _two_form_value(g2, a2, di, dk)
            wh = max(wh, abs(w + bundle.helicoidal[i, k]))
    out["symplectic_vs_helicoidal"] = wh

    # horizontal derivative of L, both routes
    route_a = j.d_x - j.d_y @ bundle.conn
    dsl = push_direction(lambda q: _scalar_sl(sys, q), p, eye, wrt="y")
    route_b = (dsl - bundle.sigma) * 0.5
    out["lagrangian_horizontal_routes"] = float(np.abs(route_a - route_b).max())

    # horizontal derivative of E, both routes
    de_x = yv @ j.d_xy - j.d_x
    de_y = yv @ j.d_yy
    hde = de_x - de_y @ bundle.conn
    dvdy = force_jacobian_y(sys, p)
    gy = g.entries @ yv
    closed = 2.0 * (g.entries @ (2.0 * spray0 - conn0 @ yv)) + 0.5 * (gy @ dvdy)
    out["energy_horizontal_routes"] = float(np.abs(hde - closed).max())

    if finsler:
        gamma = christoffel_at(sys, p)
        out["christoffel_contraction"] = float(
            np.abs(gamma @ np.asarray(yv, dtype=float) @ np.asarray(yv, dtype=float)
                   - 2.0 * spray0).max()
        )
        out["finsler_energy_formula"] = float(np.abs(hde - 0.5 * (gy @ dvdy)).max())
    return out


def run_verification(sys: MechanicalSystem, samples, tol: float = 1e-8) -> dict:
    """Evaluate every identity residual over the samples.

    Returns a report with the max residual per identity, the offenders
    exceeding ``tol``, and the sample indices where the metric was
    singular or a field left its domain.
    """
    finsler = True
    probes = samples[: min(8, len(samples))]
    for p in probes:
        try:
            if homogeneity_residual_at(sys, p) > tol * (1.0 + abs(float(sys.L.at(p)))):
                finsler = False
                break
        except (SingularMetric, DomainError, FinslerModeError):
            finsler = False
            break
    if not probes:
        finsler = False

    maxima: dict = {}
    singular = []
    tested = 0
    for idx, p in enumerate(samples):
        try:
            res = _point_residuals(sys, p, finsler)
        except (SingularMetric, DomainError) as err:
            singular.append({"index": idx, "error": type(err).__name__,
                             "detail": str(err),
                             "point": {"x": list(p.x), "y": list(p.y)}})
            continue
        tested += 1
        for name, v in res.items():
            maxima[name] = max(maxima.get(name, 0.0), v)

    residuals = dict(maxima)
    if not finsler:
        residuals["christoffel_contraction"] = None
        residuals["finsler_energy_formula"] = None
    offenders = sorted(
        name for name, v in residuals.items() if v is not None and v > tol
    )
    return {
        "residuals": residuals,
        "tolerance": tol,
        "offenders": offenders,
        "points_tested": tested,
        "finsler_mode": finsler,
        "singular_points": singular,
    }
