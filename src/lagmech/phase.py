"""Phase points and evaluatable fields on the tangent bundle.

A phase point u = (x, y) collects base coordinates x and fiber (velocity)
coordinates y of a single chart on an open subset of R^n.  Fields are plain
callables ``f(x, y)`` over sequences of tower scalars, so the same field
definition evaluates on floats, dual numbers (KDual), or jets without change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


def _coerce(values) -> tuple:
    out = []
    for v in values:
        if isinstance(v, (int, float)):
            out.append(float(v))
        else:
            out.append(v)  # dual numbers and other tower scalars pass through
    return tuple(out)


@dataclass(frozen=True)
class PhasePoint:
    """A point u = (x, y) of the (slit) tangent bundle.

    Coordinates are stored as tuples so points are hashable and safe to
    share.  Entries are usually floats; directional-derivative evaluation
    substitutes dual numbers.
    """

    x: tuple
    y: tuple

    def __init__(self, x: Sequence, y: Sequence):
        object.__setattr__(self, "x", _coerce(x))
        object.__setattr__(self, "y", _coerce(y))
        if len(self.x) != len(self.y):
            raise ValueError(
                f"base and fiber dimensions differ: {len(self.x)} vs {len(self.y)}"
            )

    @property
    def n(self) -> int:
        return len(self.x)

    def y_norm(self) -> float:
        """Euclidean norm of the fiber coordinates (float entries only)."""
        return math.sqrt(sum(float(v) ** 2 for v in self.y))

    def __repr__(self):
        return f"PhasePoint(x={self.x}, y={self.y})"


class ScalarField:
    """An evaluatable scalar field L(x, y), generic over the numeric tower.

    Wraps a callable ``fn(x, y) -> scalar`` where ``x`` and ``y`` are
    sequences of tower scalars of length ``n``.  The result lives in the
    same tower as the inputs (float in, float out; jet in, jet out).
    ``tree``: the bound expression tree, which the integrators compile.
    """

    __slots__ = ("n", "fn", "source", "tree")

    def __init__(self, n: int, fn: Callable, source: str | None = None, tree=None):
        self.n = n
        self.fn = fn
        self.source = source
        self.tree = tree

    def __call__(self, x: Sequence, y: Sequence):
        return self.fn(x, y)

    def at(self, p: PhasePoint):
        """Evaluate at a phase point with plain scalars."""
        return self.fn(p.x, p.y)

    def __repr__(self):
        return f"ScalarField(n={self.n}, source={self.source!r})"


class VerticalField:
    """A vertical vector field with components V^i(x, y).

    Only fiber components are carried; the field acts along the velocity
    directions by construction.  ``trees``: each component's bound tree.
    """

    __slots__ = ("n", "fn", "sources", "trees")

    def __init__(self, n: int, fn: Callable, sources=None, trees=None):
        self.n = n
        self.fn = fn
        self.sources = tuple(sources) if sources else None
        self.trees = tuple(trees) if trees is not None else None

    def __call__(self, x: Sequence, y: Sequence):
        comps = self.fn(x, y)
        return list(comps)

    def at(self, p: PhasePoint):
        return self.fn(p.x, p.y)

    @classmethod
    def zero(cls, n: int) -> "VerticalField":
        from .dsl import Num

        return cls(n, lambda x, y: [0.0] * n, sources=["0"] * n, trees=[Num(0.0)] * n)

    def __repr__(self):
        return f"VerticalField(n={self.n}, sources={self.sources!r})"
