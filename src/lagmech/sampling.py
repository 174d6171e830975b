"""Deterministic sample-point generation over phase-space boxes."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .phase import PhasePoint

__all__ = ["halton", "sample_box"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _radical_inverse(index: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while index > 0:
        denom *= base
        index, digit = divmod(index, base)
        inv += digit / denom
    return inv


def halton(count: int, dims: int, start: int = 1) -> np.ndarray:
    """Low-discrepancy points in the unit cube, deterministic in ``start``."""
    if dims > len(_PRIMES):
        raise ConfigError(f"at most {len(_PRIMES)} dimensions supported")
    return np.array(
        [[_radical_inverse(i, _PRIMES[d]) for d in range(dims)]
         for i in range(start, start + count)]
    )


def sample_box(box_x, box_y, count: int, mode: str = "halton", seed: int = 0,
               min_y_norm: float = 0.0) -> list:
    """Draw phase points from a product box.

    ``box_x`` and ``box_y`` are lists of (lo, hi) pairs, one per
    coordinate.  Points whose fiber norm falls below ``min_y_norm`` are
    rejected and replaced, keeping the draw deterministic for a fixed
    mode and seed.
    """
    n = len(box_x)
    if len(box_y) != n:
        raise ConfigError("box_x and box_y must have the same dimension")
    lo = np.array([b[0] for b in box_x] + [b[0] for b in box_y], dtype=float)
    hi = np.array([b[1] for b in box_x] + [b[1] for b in box_y], dtype=float)
    if np.any(hi < lo):
        raise ConfigError("box bounds must satisfy lo <= hi")

    points: list = []
    if mode == "halton":
        start = 1
        budget = 1000 * count + 1000
        while len(points) < count and budget > 0:
            chunk = halton(count, 2 * n, start=start)
            start += count
            budget -= count
            for u in chunk:
                z = lo + u * (hi - lo)
                if np.linalg.norm(z[n:]) >= min_y_norm:
                    points.append(PhasePoint(z[:n], z[n:]))
                    if len(points) == count:
                        break
    elif mode == "random":
        rng = np.random.default_rng(seed)
        budget = 1000 * count + 1000
        while len(points) < count and budget > 0:
            z = lo + rng.random(2 * n) * (hi - lo)
            budget -= 1
            if np.linalg.norm(z[n:]) >= min_y_norm:
                points.append(PhasePoint(z[:n], z[n:]))
    else:
        raise ConfigError(f"unknown sampling mode {mode!r}")
    if len(points) < count:
        raise ConfigError("could not draw enough samples satisfying the fiber guard")
    return points
