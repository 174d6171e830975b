"""The reports' and the context's tensor formulas in numpy, on the
reference tower's contractions: what the compiled reports (and the
``point`` report's E, sigma . y and derived tensors, and the ``euler``
program's outputs) must equal bit for bit.

Each route reads a context's ``point`` outputs (the fields of a
:class:`~lagmech.mechanics.PointGeometry`) and, where it needs them, g's
x-derivatives (the context's ``dg_dx``, behind the checks of the
reference tower's x-derivative pass of g), and evaluates the formula
on float arrays: a contraction is a left-to-right sum of products from
+0.0, as :func:`tower.matvec` and its siblings sum it, and a maximum
takes NaN first, as ``np.abs(a).max()`` does.
"""

import numpy as np

from lagmech.errors import DomainError, FinslerModeError
from tower import (christoffel_symbols, energy_parts, matmat, matvec, max_abs, metric_x_pass,
                   value_of, vecdot, vecmat)

_GATE_TOL = 1e-8  # the Euler test's, defect <= tol (1 + |L|)


def dg_dx(ctx) -> np.ndarray:
    """``dg_dx[a, b, c] = dg_ab/dx_c``: the context's bits, raising first
    what the reference tower's x-derivative pass of g raises."""
    metric_x_pass(ctx.sys.L, ctx.p)
    return ctx.dg_dx


def peak(ctx, a):
    """max |a| over the value axes: a float, or over a batch the (B,)
    array of each point's maximum."""
    if ctx.batched:
        return np.abs(a).max(axis=tuple(range(np.ndim(a) - 1)))
    return float(np.abs(a).max())


# the derived tensors of the point outputs, each an exact zero +0.0 as a
# report's outputs are (a product that underflows is -0.0 before it)


def gbar(ctx) -> np.ndarray:
    """The symmetric part of dsigma/dy over 4: the dynamical covariant
    derivative of g along the evolution pair."""
    return (ctx.dsigma_dy + ctx.dsigma_dy.swapaxes(0, 1)) * 0.25 + 0.0


def helicoidal(ctx) -> np.ndarray:
    """The antisymmetric part of dsigma/dy over 2."""
    return (ctx.dsigma_dy - ctx.dsigma_dy.swapaxes(0, 1)) * 0.5 + 0.0


def cartan(ctx) -> np.ndarray:
    return ctx.d_yyy * 0.25 + 0.0


def two_form_pieces(j):
    g = j.d_yy * 0.5
    a = (j.d_xy - j.d_xy.swapaxes(0, 1)) * 0.5
    return g, a


def sode_residual(j, yv, spray, sigma=None):
    """Max residual of i_S omega = -dE (+ sigma) over the 2n basis vectors,
    S having the natural components (y, -2 spray)."""
    g, a = two_form_pieces(j)
    _, de_x, de_y = energy_parts(j, yv)
    sy = spray * (-2.0)
    res_x = matvec(g, sy) * 2.0 + matvec(a, yv) * 2.0 + de_x
    if sigma is not None:
        res_x = res_x - sigma
    res_y = matvec(g, yv) * (-2.0) + de_y
    return max_abs(np.concatenate([res_x, res_y]), yv.ndim == 2)


def horizontal_two_form(j, conn):
    """2 (g N - (g N)^T) + a^T - a."""
    g, a = two_form_pieces(j)
    gn = matmat(g, conn)
    return 2.0 * (gn - gn.swapaxes(0, 1)) + (a.swapaxes(0, 1) - a)


def dyn_cov_deriv_g(ctx, dgdx, spray, conn):
    s_g = matvec(dgdx, ctx.y) - matvec(ctx.d_yyy, np.asarray(spray, dtype=float))
    gn = matmat(ctx.metric.entries, np.asarray(conn, dtype=float))
    return s_g - gn - gn.swapaxes(0, 1)


def point_values(ctx) -> dict:
    """E, sigma . y and the derived tensors, the ``point`` report's last
    five outputs."""
    return {"energy": value_of(vecdot(ctx.y, ctx.jet.d_y) - ctx.jet.value),
            "power": value_of(vecdot(ctx.sigma, ctx.y)),
            "gbar": gbar(ctx), "helicoidal": helicoidal(ctx), "cartan": cartan(ctx)}


def classify_values(ctx) -> dict:
    """The ``classify`` report: the metric and symplectic defects over
    1 + max |g|, and sigma . y."""
    scale = 1.0 + peak(ctx, ctx.metric.entries)
    return {"metric_defect": peak(ctx, gbar(ctx)) / scale,
            "symplectic_defect": peak(ctx, helicoidal(ctx)) / scale,
            "worst_power": ctx.power}


def inspect_values(ctx) -> dict:
    """The ``inspect`` report."""
    return {"g": ctx.metric.entries, "g_inv": ctx.metric.inverse, "E": ctx.energy,
            "G0": ctx.spray0, "N0": ctx.conn0, "C": cartan(ctx), "sigma": ctx.sigma,
            "G": ctx.spray, "N": ctx.conn, "F": helicoidal(ctx), "gbar": gbar(ctx),
            "power": ctx.power}


def context_values(ctx, dgdx) -> dict:
    """The ``context`` report."""
    j, yv = ctx.jet, ctx.y
    _, de_x, de_y = energy_parts(j, yv)
    g = ctx.metric.entries
    closed = (2.0 * matvec(g, 2.0 * ctx.spray0 - matvec(ctx.conn0, yv))
              + 0.5 * vecmat(matvec(g, yv), ctx.dV_dy))
    s_theta = matvec(j.d_xy, yv) - 2.0 * matvec(j.d_yy, ctx.spray)
    return {
        "dE": np.concatenate([de_x, de_y]),
        "dg_dx": dgdx,
        "christoffel": christoffel_symbols(ctx.metric.inverse, dgdx),
        "horizontal_dL": j.d_x - vecmat(j.d_y, ctx.conn),
        "horizontal_dE": de_x - vecmat(de_y, ctx.conn),
        "horizontal_dE_closed": closed,
        "evolution_equation_residual": sode_residual(j, yv, ctx.spray, sigma=ctx.sigma),
        "lie_theta_residual": peak(ctx, s_theta - j.d_x - ctx.sigma),
        "symplectic_defect": peak(ctx, horizontal_two_form(j, ctx.conn)),
        "lagrangian_condition": value_of(vecdot(matvec(ctx.dV_dy, yv), j.d_y)
                                         + 2.0 * vecdot(ctx.dS0L_dy, yv)),
        "energy_condition": 2.0 * value_of(vecdot(closed, yv)),
    }


def _finsler_residuals(ctx, members) -> tuple:
    """max |gamma y y - 2 G0| and max |dE_h - (g y)^T dV/dy / 2|."""
    yv = ctx.y
    slope = 0.5 * vecmat(matvec(ctx.metric.entries, yv), ctx.dV_dy)
    return (peak(ctx, matvec(matvec(members["christoffel"], yv), yv) - 2.0 * ctx.spray0),
            peak(ctx, members["horizontal_dE"] - slope))


def verify_values(ctx, dgdx) -> dict:
    """The ``verify`` report, which every system runs."""
    members = context_values(ctx, dgdx)
    j = ctx.jet
    scale = 1.0 + peak(ctx, ctx.metric.entries)
    return {
        "canonical_spray_equation": sode_residual(j, ctx.y, ctx.spray0),
        "evolution_spray_equation": members["evolution_equation_residual"],
        "cartan_form_transport": members["lie_theta_residual"],
        "canonical_metricity": peak(ctx, dyn_cov_deriv_g(ctx, dgdx, ctx.spray0, ctx.conn0)) / scale,
        "canonical_horizontal_two_form": peak(ctx, horizontal_two_form(j, ctx.conn0)),
        "metric_derivative_agreement": peak(
            ctx, gbar(ctx) - dyn_cov_deriv_g(ctx, dgdx, ctx.spray, ctx.conn)),
        "symplectic_vs_helicoidal": peak(ctx, horizontal_two_form(j, ctx.conn) + helicoidal(ctx)),
        "lagrangian_horizontal_routes": peak(
            ctx, members["horizontal_dL"] - (ctx.dSL_dy - ctx.sigma) * 0.5),
        "energy_horizontal_routes": peak(
            ctx, members["horizontal_dE"] - members["horizontal_dE_closed"]),
    }


def verify_finsler_values(ctx, dgdx) -> dict:
    """The ``verify_finsler`` report: ``verify``'s residuals, then the two
    Finsler ones."""
    out = verify_values(ctx, dgdx)
    members = context_values(ctx, dgdx)
    out["christoffel_contraction"], out["finsler_energy_formula"] = _finsler_residuals(ctx, members)
    return out


def euler_defect(value, d_y, p):
    """|(dL/dy_i) y^i - 2L| (per point of a batch); a DomainError where it
    is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = value_of(abs(vecdot(np.array(p.y), d_y) - 2.0 * value))
    if not np.isfinite(defect).all():
        raise DomainError("field evaluation produced a non-finite value")
    return defect


def require_euler(value, d_y, p):
    """FinslerModeError where L fails the Euler test at ``p``."""
    defect = euler_defect(value, d_y, p)
    bad = np.logical_not(defect <= _GATE_TOL * (1.0 + abs(value)))
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise FinslerModeError(
                f"Lagrangian is not 2-homogeneous at {int(bad.sum())} of {bad.size} points")
    elif bad:
        raise FinslerModeError(f"Lagrangian is not 2-homogeneous at {p} (Euler defect {defect:.3e})")


def identity_values(ctx) -> dict:
    """The ``identities`` report: the Euler test at the context's point,
    then the residuals, g's x-derivatives read as the Christoffel symbols
    read them."""
    require_euler(ctx.jet.value, ctx.jet.d_y, ctx.p)
    members = context_values(ctx, dg_dx(ctx))
    lv = value_of(ctx.jet.value)
    christoffel, energy_slope = _finsler_residuals(ctx, members)
    return {
        "energy_residual": abs(point_values(ctx)["energy"] - lv) / (1.0 + abs(lv)),
        "spray_homogeneity_residual": peak(ctx, 2.0 * ctx.spray0 - matvec(ctx.conn0, ctx.y)),
        "energy_slope_residual": energy_slope,
        "christoffel_residual": christoffel,
    }
