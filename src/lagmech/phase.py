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
from functools import cache
from typing import Sequence

from .errors import ConfigError


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
            raise ConfigError(f"base and fiber dimensions differ: {len(self.x)} vs {len(self.y)}")

    @property
    def n(self) -> int:
        return len(self.x)

    def __repr__(self):
        return f"PhasePoint(x={self.x}, y={self.y})"


def _values(L, V, x, y) -> list:
    """The ``value`` program of the field L or V at coordinates x, y
    (floats, or (B,) arrays over a batch)."""
    from .compiled import program  # compiled at the first evaluation, not at import

    return program("value", L, V)([*x, *y])


class _Field:
    """A field is its bound tree(s) in n dimensions: fields whose
    structural keys (made once, at construction) agree are equal and share
    their compiled programs."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


class ScalarField(_Field):
    """A scalar field L(x, y): its bound expression tree, evaluated by its
    compiled ``value`` program (:mod:`lagmech.compiled`), which also gives
    every derivative of it.
    """

    __slots__ = ("n", "tree", "source", "key")

    def __init__(self, n: int, tree, source: str | None = None):
        self.n = n
        self.tree = tree
        self.source = source
        self.key = repr((n, tree))  # repr tells -0.0 from 0.0

    def __call__(self, x: Sequence, y: Sequence):
        return _values(self, None, x, y)[0]

    def at(self, p: PhasePoint):
        """The value at a phase point: a float, or over a batch a (B,)
        array (a float still where the tree is a constant)."""
        return _values(self, None, p.x, p.y)[0]

    def __repr__(self):
        return f"ScalarField(n={self.n}, source={self.source!r})"


class VerticalField(_Field):
    """A vertical vector field with components V^i(x, y), one bound tree
    each, evaluated by their compiled ``value`` program.

    Only fiber components are carried; the field acts along the velocity
    directions by construction.
    """

    __slots__ = ("n", "trees", "sources", "key")

    def __init__(self, n: int, trees, sources=None):
        self.n = n
        self.trees = tuple(trees)
        self.sources = tuple(sources) if sources else None
        self.key = repr((n, self.trees))

    def __call__(self, x: Sequence, y: Sequence):
        return _values(None, self, x, y)

    def at(self, p: PhasePoint):
        """The components at a phase point, as a list of floats (of (B,)
        arrays over a batch)."""
        return _values(None, self, p.x, p.y)

    @classmethod
    @cache  # a field is immutable: one zero field per n serves every free system
    def zero(cls, n: int) -> "VerticalField":
        from .dsl import Num

        return cls(n, [Num(0.0)] * n, sources=["0"] * n)

    def __repr__(self):
        return f"VerticalField(n={self.n}, sources={self.sources!r})"
