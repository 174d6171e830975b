"""Central-difference oracle with the same block layout as ``eval_jet``.

Test-only: it evaluates the field on plain floats and is entirely
independent of the jet propagation it checks.
"""

import numpy as np

from lagmech.jets import Jet
from lagmech.phase import PhasePoint

# Step floors per derivative order.  Central differences at the caller's h
# are meaningless for second and third derivatives once h drops below the
# roundoff balance point (~eps^(1/4) and ~eps^(1/5) times the value scale),
# so the base step is clamped upward per order and scaled with the value
# magnitude; third-order stencils are Richardson-extrapolated twice, which
# pushes their truncation to O(step^6) and lets the step stay large enough
# to keep roundoff in check.  First-order blocks always honor h.
_FD_FLOOR_2 = 1.5e-4
_FD_FLOOR_3 = 6.0e-3


def fd_oracle(f, p: PhasePoint, order: int = 3, h: float = 1e-5) -> Jet:
    """Central-difference estimate of the same blocks as :func:`eval_jet`.

    Pure value-level evaluations; entirely independent of the jet
    propagation.  Truncation is O(step^2) per stencil before
    extrapolation.  Intended as a test oracle, not a production
    differentiator.
    """

    if h <= 0.0:
        raise ValueError("h must be positive")
    n = p.n
    x0 = np.array([float(v) for v in p.x])
    y0 = np.array([float(v) for v in p.y])

    def ev(dx, dy):
        q = PhasePoint(x0 + dx, y0 + dy)
        return float(f(q.x, q.y))

    zero = np.zeros(n)
    f0 = ev(zero, zero)
    scale = max(1.0, (abs(f0) / 2.0) ** (1.0 / 3.0))
    s1 = h
    s2 = max(h, _FD_FLOOR_2) * scale
    s3 = max(h, _FD_FLOOR_3) * scale

    out = Jet.constant(f0, n, order)
    if order >= 1:
        d_x = np.zeros(n)
        d_y = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = s1
            d_x[i] = (ev(e, zero) - ev(-e, zero)) / (2.0 * s1)
            d_y[i] = (ev(zero, e) - ev(zero, -e)) / (2.0 * s1)
        out.d_x, out.d_y = d_x, d_y
    if order >= 2:
        d_yy = np.zeros((n, n))
        d_xy = np.zeros((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = s2
            d_yy[i, i] = (ev(zero, ei) - 2.0 * f0 + ev(zero, -ei)) / (s2 * s2)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = s2
                v = (ev(zero, ei + ej) - ev(zero, ei - ej)
                     - ev(zero, ej - ei) + ev(zero, -ei - ej)) / (4.0 * s2 * s2)
                d_yy[i, j] = v
                d_yy[j, i] = v
            for j in range(n):
                ex = np.zeros(n)
                ex[j] = s2
                d_xy[i, j] = (ev(ex, ei) - ev(-ex, ei)
                              - ev(ex, -ei) + ev(-ex, -ei)) / (4.0 * s2 * s2)
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
                    t1 = third(a, b, c, s3)
                    t2 = third(a, b, c, s3 / 2.0)
                    t4 = third(a, b, c, s3 / 4.0)
                    r1 = (4.0 * t2 - t1) / 3.0
                    r2 = (4.0 * t4 - t2) / 3.0
                    v = (16.0 * r2 - r1) / 15.0
                    for idx in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                        d_yyy[idx] = v
        out.d_yyy = d_yyy
    return out.finalized()
