"""Phase points and evaluatable fields on the tangent bundle.

A phase point u = (x, y) collects base coordinates x and fiber (velocity)
coordinates y of a single chart on an open subset of R^n; over a batch
each coordinate is a (B,) array.  A field is its bound expression tree
(:mod:`lagmech.dsl`): called as ``f(x, y)`` it evaluates the tree at
float coordinates, and :mod:`lagmech.compiled` lowers the same tree into
the derivative programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def _coerce(values) -> tuple:
    out = []
    for v in values:
        if isinstance(v, (int, float)):
            out.append(float(v))
        else:
            out.append(v)  # the arrays of a batch pass through
    return tuple(out)


@dataclass(frozen=True)
class PhasePoint:
    """A point u = (x, y) of the (slit) tangent bundle.

    Coordinates are stored as tuples so points are hashable and safe to
    share.  Entries are floats, or (B,) arrays for a batch of points.
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

    def __repr__(self):
        return f"PhasePoint(x={self.x}, y={self.y})"


class ScalarField:
    """A scalar field L(x, y): its bound expression tree, evaluated by
    :func:`lagmech.dsl.eval_expr` at float coordinates (entry by entry at
    arrays).  Every derivative of it comes from the same tree compiled
    (:mod:`lagmech.compiled`).
    """

    __slots__ = ("n", "tree", "source")

    def __init__(self, n: int, tree, source: str | None = None):
        self.n = n
        self.tree = tree
        self.source = source

    def __call__(self, x: Sequence, y: Sequence):
        from .dsl import eval_expr  # dsl builds fields, so it imports this module

        return eval_expr(self.tree, x, y)

    def at(self, p: PhasePoint):
        """Evaluate at a phase point with plain scalars."""
        from .dsl import eval_expr

        return eval_expr(self.tree, p.x, p.y)

    def __repr__(self):
        return f"ScalarField(n={self.n}, source={self.source!r})"


class VerticalField:
    """A vertical vector field with components V^i(x, y), one bound tree
    each.

    Only fiber components are carried; the field acts along the velocity
    directions by construction.
    """

    __slots__ = ("n", "trees", "sources")

    def __init__(self, n: int, trees, sources=None):
        self.n = n
        self.trees = tuple(trees)
        self.sources = tuple(sources) if sources else None

    def __call__(self, x: Sequence, y: Sequence):
        from .dsl import eval_expr

        return [eval_expr(t, x, y) for t in self.trees]

    def at(self, p: PhasePoint):
        from .dsl import eval_expr

        return [eval_expr(t, p.x, p.y) for t in self.trees]

    @classmethod
    def zero(cls, n: int) -> "VerticalField":
        from .dsl import Num

        return cls(n, [Num(0.0)] * n, sources=["0"] * n)

    def __repr__(self):
        return f"VerticalField(n={self.n}, sources={self.sources!r})"
