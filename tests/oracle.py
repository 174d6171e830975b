"""Central-difference oracle with the same block layout as ``eval_jet``.

Test-only: it evaluates the field on plain floats and is entirely
independent of the jet propagation it checks.
"""

import math

import numpy as np

from lagmech.jets import Jet
from lagmech.phase import PhasePoint

# First-order blocks are central differences at the caller's h.  A second
# or third derivative's stencil at a fixed step is either truncation- or
# roundoff-bound, so those blocks are extrapolated by Ridders' method
# (Numerical Recipes, 3rd ed., sec. 5.7): the stencil at a step that
# shrinks by _RIDDERS_CON per row, Neville-extrapolated to step zero, from
# a first step of _RIDDERS_START times the value scale, keeping the
# estimate whose error estimate is smallest.
_RIDDERS_START = 0.01
_RIDDERS_CON = 1.4
_RIDDERS_ROWS = 10


def _ridders(stencil, step: float) -> float:
    """Ridders' extrapolation to step zero of a central stencil whose
    truncation error is a series in step^2; the tableau stops once its
    error estimate has doubled over the best one."""
    con2 = _RIDDERS_CON * _RIDDERS_CON
    prev = [stencil(step)]
    best, err = prev[0], math.inf
    for i in range(1, _RIDDERS_ROWS):
        step /= _RIDDERS_CON
        row = [stencil(step)]
        fac = con2
        for j in range(1, i + 1):
            row.append((row[j - 1] * fac - prev[j - 1]) / (fac - 1.0))
            fac *= con2
            e = max(abs(row[j] - row[j - 1]), abs(row[j] - prev[j - 1]))
            if e <= err:
                best, err = row[j], e
        if abs(row[i] - prev[i - 1]) >= 2.0 * err:
            break
        prev = row
    return best


def fd_oracle(f, p: PhasePoint, order: int = 3, h: float = 1e-5) -> Jet:
    """Central-difference estimate of the same blocks as :func:`eval_jet`.

    Pure value-level evaluations; entirely independent of the jet
    propagation.  First derivatives take central differences at ``h``;
    second and third derivatives are Ridders-extrapolated from a first
    step of max(h, 0.01) times the value scale.  Intended as a test
    oracle, not a production differentiator.
    """

    if h <= 0.0:
        raise ValueError("h must be positive")
    n = p.n
    x0 = np.array([float(v) for v in p.x])
    y0 = np.array([float(v) for v in p.y])

    def ev(dx, dy):
        q = PhasePoint(x0 + dx, y0 + dy)
        return float(f(q.x, q.y))

    def unit(i, s):
        e = np.zeros(n)
        e[i] = s
        return e

    zero = np.zeros(n)
    f0 = ev(zero, zero)
    scale = max(1.0, (abs(f0) / 2.0) ** (1.0 / 3.0))
    s1 = h
    s0 = max(h, _RIDDERS_START) * scale

    out = Jet(n, order, f0, np.zeros(n), np.zeros(n), np.zeros((n, n)), np.zeros((n, n)),
              np.zeros((n, n, n)))
    if order >= 1:
        d_x = np.zeros(n)
        d_y = np.zeros(n)
        for i in range(n):
            e = unit(i, s1)
            d_x[i] = (ev(e, zero) - ev(-e, zero)) / (2.0 * s1)
            d_y[i] = (ev(zero, e) - ev(zero, -e)) / (2.0 * s1)
        out.d_x, out.d_y = d_x, d_y
    if order >= 2:
        def yy(i, j, s):
            ei, ej = unit(i, s), unit(j, s)
            if i == j:
                return (ev(zero, ei) - 2.0 * f0 + ev(zero, -ei)) / (s * s)
            return (ev(zero, ei + ej) - ev(zero, ei - ej)
                    - ev(zero, ej - ei) + ev(zero, -ei - ej)) / (4.0 * s * s)

        def xy(i, j, s):
            ei, ex = unit(i, s), unit(j, s)
            return (ev(ex, ei) - ev(-ex, ei) - ev(ex, -ei) + ev(-ex, -ei)) / (4.0 * s * s)

        d_yy = np.zeros((n, n))
        d_xy = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                d_yy[i, j] = d_yy[j, i] = _ridders(lambda s: yy(i, j, s), s0)
            for j in range(n):
                d_xy[i, j] = _ridders(lambda s: xy(i, j, s), s0)
        out.d_yy, out.d_xy = d_yy, d_xy
    if order >= 3:
        def third(a, b, c, s):
            acc = 0.0
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    for sc in (1.0, -1.0):
                        shift = np.zeros(n)
                        shift[a] += sa * s
                        shift[b] += sb * s
                        shift[c] += sc * s
                        acc += sa * sb * sc * ev(zero, shift)
            return acc / (8.0 * s * s * s)

        d_yyy = np.zeros((n, n, n))
        for a in range(n):
            for b in range(a, n):
                for c in range(b, n):
                    v = _ridders(lambda s: third(a, b, c, s), s0)
                    for idx in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                        d_yyy[idx] = v
        out.d_yyy = d_yyy
    return out
