"""Catalog of named example systems used by the tests, demos and CLI.

A system is a Lagrangian and a force given as expression sources, and
:func:`from_sources` is the one function that parses and binds them: for
a config's expression system and for every builtin.  A builtin is a base
Lagrangian of ``_BASES`` (its dimension, source, fiber guard and sample
box, each stated once) and a force rule.  Parameters are bound at
instantiation; requesting an entry without a required parameter raises,
rather than silently using a default, and a numeric parameter that is
not a real number (or an ``n`` that is not a whole number of at least 1)
is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .dsl import bind_scalar, bind_vertical, parse, real_parameter
from .errors import ConfigError, UnboundParameter, UnknownBuiltin
from .mechanics import MechanicalSystem
from .phase import VerticalField
from .sampling import sample_box

__all__ = ["BuiltinEntry", "catalog", "find", "from_sources", "instantiate", "standard_samples"]


def from_sources(n: int, lagrangian: str, force=None, params=None, domain_guard=None,
                 label: str = "custom") -> MechanicalSystem:
    """The system of a Lagrangian source and a force given as a list of n
    component sources (None: no force), with ``params`` bound.

    Every source is parsed before any is bound, so a source that does not
    parse is reported before a parameter that has no value.
    """
    if n < 1:
        raise ConfigError(f"the dimension n must be at least 1, got {n}")
    L = parse(lagrangian, n)
    if force is not None:
        if not isinstance(force, list):
            raise ConfigError("'force' must be a list of n component sources")
        if len(force) != n:
            raise ConfigError(f"force has {len(force)} components but the dimension is {n}")
        force = [parse(str(s), n) for s in force]
    params = {} if params is None else params
    L = bind_scalar(L, n, params, source=lagrangian)
    V = VerticalField.zero(n) if force is None else bind_vertical(force, n, params)
    return MechanicalSystem(L, V, n, params=params, domain_guard=domain_guard, label=label)


class _Base(NamedTuple):
    """A base Lagrangian: its dimension (None: the parameter ``n``, default
    2), its source at a dimension, its fiber guard, and the x and y bounds
    of its sample box in each coordinate."""

    n: int | None
    source: Callable[[int], str]
    guard: str | None
    box_x: tuple
    box_y: tuple


_BASES = {
    "EUCLID": _Base(None, lambda n: " + ".join(f"y{i}^2" for i in range(1, n + 1)), None,
                    (-1.0, 1.0), (-2.0, 2.0)),
    "SYS-A": _Base(1, lambda n: "y1^2 - x1^2", None, (-1.5, 1.5), (-2.0, 2.0)),
    "SYS-B": _Base(2, lambda n: "(1 + x1^2)*y1^2 + y2^2", None, (-1.5, 1.5), (-2.0, 2.0)),
    "SYS-C": _Base(2, lambda n: "(y1^4 + y2^4)^(1/2)", "y_nonzero", (-1.0, 1.0), (0.3, 2.0)),
}


def _dimension(params: dict, default: int) -> int:
    """The parameter ``n``: a real number with an integer value of at least 1."""
    n = real_parameter("n", params.get("n", default))
    if not n.is_integer():
        raise ConfigError(f"parameter 'n' must be a whole number, got {params['n']!r}")
    if n < 1:
        raise ConfigError(f"parameter 'n' must be at least 1, got {params['n']!r}")
    return int(n)


@dataclass
class BuiltinEntry:
    """One catalog row: identification and defaults, a base Lagrangian
    (None where the parameter ``base`` names it) and a force rule.  The
    rule takes the required parameters, as numbers, and the dimension to
    the force's sources (None: no force) and the system's params."""

    id: str
    description: str
    default_params: dict
    required_params: tuple
    reference: str
    base: str | None = field(repr=False)
    force: Callable[[dict, int], tuple] = field(repr=False)

    @property
    def n(self) -> int:
        return self._base(self.default_params)[1]

    @property
    def domain_guard(self) -> str | None:
        return _BASES[self._base(self.default_params)[0]].guard

    def _base(self, params: dict) -> tuple:
        """The base's name and the dimension: the parameter ``n`` (default 2)
        for a base of any dimension, else the base's own, which an ``n``
        must match where the parameter ``base`` selects the base."""
        name = self.base or str(params.get("base", self.default_params["base"]))
        if name not in _BASES:
            raise UnknownBuiltin(f"{self.id} base {name!r} is not a known Lagrangian")
        dim = _BASES[name].n
        if self.base and dim is not None:
            return name, dim
        n = _dimension(params, dim or 2)
        if dim is not None and n != dim:
            raise ConfigError(f"{self.id} base {name!r} has dimension {dim}, got n = {n}")
        return name, n

    def build(self, params: dict) -> MechanicalSystem:
        """The system at ``params``: the required parameters are read as
        numbers before the base and the dimension."""
        for name in self.required_params:
            if name not in params:
                raise UnboundParameter(name)
        values = {name: real_parameter(name, params[name]) for name in self.required_params}
        name, n = self._base(params)
        if not self.base:
            values["base"] = name
        force, bound = self.force(values, n)
        base = _BASES[name]
        return from_sources(n, base.source(n), force, bound, base.guard,
                            self.id if self.base else f"{self.id}[{name}]")

    def box(self, params: dict) -> tuple:
        """The default sample box at ``params``: x and y bounds per coordinate."""
        name, n = self._base(params)
        base = _BASES[name]
        return [list(base.box_x)] * n, [list(base.box_y)] * n

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "n": self.n,
            "default_params": dict(self.default_params),
            "required_params": list(self.required_params),
            "reference": self.reference,
            "domain_guard": self.domain_guard,
        }


_CATALOG = [
    BuiltinEntry(
        id="EUCLID",
        description="Flat free system: L is the squared Euclidean velocity "
                    "norm in n dimensions, no external force.",
        default_params={"n": 2},
        required_params=(),
        reference="quadratic kinetic-energy baseline",
        base="EUCLID",
        force=lambda p, n: (None, {"n": n}),
    ),
    BuiltinEntry(
        id="SYS-A",
        description="Linear oscillator L = y1^2 - x1^2 with velocity damping "
                    "V = -2c y1 (Liouville force, e = -2c); undamped at c = 0.",
        default_params={"c": 0.1},
        required_params=("c",),
        reference="damped harmonic oscillator",
        base="SYS-A",
        force=lambda p, n: (["e*y1"], {"c": p["c"], "e": -2.0 * p["c"]}),
    ),
    BuiltinEntry(
        id="SYS-B",
        description="Riemannian-type Lagrangian (1 + x1^2) y1^2 + y2^2 with "
                    "position-dependent metric, no force.",
        default_params={},
        required_params=(),
        reference="surface-of-revolution style quadratic metric",
        base="SYS-B",
        force=lambda p, n: (None, {}),
    ),
    BuiltinEntry(
        id="SYS-C",
        description="Quartic-root Finsler energy sqrt(y1^4 + y2^4): nonzero "
                    "Cartan tensor, regular away from the coordinate axes.",
        default_params={},
        required_params=(),
        reference="fourth-root Finsler metric",
        base="SYS-C",
        force=lambda p, n: (None, {}),
    ),
    BuiltinEntry(
        id="SYS-D",
        description="Quartic-root Finsler base with the normalized Liouville "
                    "force V = (e/F) y (zero-homogeneous; dissipative iff e < 0).",
        default_params={"e": -0.5},
        required_params=("e",),
        reference="normalized Liouville force on a Finsler base",
        base="SYS-C",
        force=lambda p, n: ([f"e*y{i}*(y1^4 + y2^4)^(-1/4)" for i in (1, 2)], p),
    ),
    BuiltinEntry(
        id="SYS-E",
        description="Liouville force family V = e y over a selectable base "
                    "Lagrangian (default the quartic-root Finsler base).",
        default_params={"e": -1.0, "base": "SYS-C"},
        required_params=("e",),
        reference="Liouville force family",
        base=None,
        force=lambda p, n: ([f"e*y{i}" for i in range(1, n + 1)], p),
    ),
]

_BY_ID = {entry.id: entry for entry in _CATALOG}


def catalog() -> list:
    """All builtin entries, in a fixed order."""
    return list(_CATALOG)


def find(builtin_id: str):
    """Entry for an id, or None when absent (lookup is not an error)."""
    return _BY_ID.get(builtin_id)


def instantiate(builtin_id: str, params: dict | None = None) -> MechanicalSystem:
    """Build a fully bound system from the catalog.

    Raises :class:`UnknownBuiltin` for an unknown id and
    :class:`UnboundParameter` when a required parameter is missing; no
    defaults are applied implicitly.
    """
    entry = find(builtin_id)
    if entry is None:
        raise UnknownBuiltin(f"no builtin system {builtin_id!r}")
    return entry.build(dict(params or {}))


def standard_samples(builtin_id: str, params: dict | None = None, count: int = 200,
                     mode: str = "halton", seed: int = 0) -> list:
    """The default deterministic sample set for a builtin system."""
    entry = find(builtin_id)
    if entry is None:
        raise UnknownBuiltin(f"no builtin system {builtin_id!r}")
    params = dict(params or {})
    box_x, box_y = entry.box(params)
    min_y = 0.1 if entry.domain_guard == "y_nonzero" else 0.0
    return sample_box(box_x, box_y, count, mode=mode, seed=seed, min_y_norm=min_y)
