"""Catalog of named example systems used by the tests, demos and CLI.

All Lagrangians and forces are stored as expression sources and built
through the expression language, so one evaluation mechanism serves the
whole package.  Parameters are bound at instantiation; requesting an
entry without a required parameter raises, rather than silently using a
default, and a numeric parameter that is not a real number (or an ``n``
that is not whole) is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .dsl import bind_scalar, bind_vertical, parse, real_parameter
from .errors import ConfigError, UnboundParameter, UnknownBuiltin
from .mechanics import MechanicalSystem
from .phase import VerticalField
from .sampling import sample_box

__all__ = ["BuiltinEntry", "catalog", "find", "instantiate", "standard_samples"]


def _euclid_source(n: int) -> str:
    return " + ".join(f"y{i}^2" for i in range(1, n + 1))


_QUARTIC_ROOT = "(y1^4 + y2^4)^(1/2)"

# base Lagrangians selectable for the Liouville family: (dimension or None
# for configurable, source builder, fiber guard)
_BASES: dict = {
    "EUCLID": (None, _euclid_source, None),
    "SYS-A": (1, lambda n: "y1^2 - x1^2", None),
    "SYS-B": (2, lambda n: "(1 + x1^2)*y1^2 + y2^2", None),
    "SYS-C": (2, lambda n: _QUARTIC_ROOT, "y_nonzero"),
}


def _base_box(base: str, n: int):
    if base in ("SYS-C",):
        return [[-1.0, 1.0]] * n, [[0.3, 2.0]] * n
    if base == "SYS-A":
        return [[-1.5, 1.5]], [[-2.0, 2.0]]
    if base == "SYS-B":
        return [[-1.5, 1.5]] * n, [[-2.0, 2.0]] * n
    return [[-1.0, 1.0]] * n, [[-2.0, 2.0]] * n


@dataclass
class BuiltinEntry:
    """One catalog row: identification, defaults, and a builder."""

    id: str
    description: str
    n: int
    default_params: dict
    required_params: tuple
    reference: str
    domain_guard: str | None
    build: Callable[[dict], MechanicalSystem] = field(repr=False)
    box: Callable[[dict], tuple] = field(repr=False)

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


def _require(params: dict, names):
    for name in names:
        if name not in params:
            raise UnboundParameter(name)


def _dimension(params: dict, default: int) -> int:
    """The parameter ``n``: a real number with an integer value."""
    n = real_parameter("n", params.get("n", default))
    if not n.is_integer():
        raise ConfigError(f"parameter 'n' must be a whole number, got {params['n']!r}")
    return int(n)


def _build_euclid(params: dict) -> MechanicalSystem:
    n = _dimension(params, 2)
    src = _euclid_source(n)
    L = bind_scalar(parse(src, n), n, source=src)
    return MechanicalSystem(L, VerticalField.zero(n), n,
                            params={"n": n}, label="EUCLID")


def _build_sys_a(params: dict) -> MechanicalSystem:
    _require(params, ("c",))
    c = real_parameter("c", params["c"])
    e = -2.0 * c
    src = _BASES["SYS-A"][1](1)
    L = bind_scalar(parse(src, 1), 1, source=src)
    V = bind_vertical([parse("e*y1", 1)], 1, {"e": e})
    return MechanicalSystem(L, V, 1, params={"c": c, "e": e}, label="SYS-A")


def _build_sys_b(params: dict) -> MechanicalSystem:
    src = _BASES["SYS-B"][1](2)
    L = bind_scalar(parse(src, 2), 2, source=src)
    return MechanicalSystem(L, VerticalField.zero(2), 2, params={}, label="SYS-B")


def _build_sys_c(params: dict) -> MechanicalSystem:
    L = bind_scalar(parse(_QUARTIC_ROOT, 2), 2, source=_QUARTIC_ROOT)
    return MechanicalSystem(L, VerticalField.zero(2), 2, params={},
                            domain_guard="y_nonzero", label="SYS-C")


def _build_sys_d(params: dict) -> MechanicalSystem:
    _require(params, ("e",))
    e = real_parameter("e", params["e"])
    L = bind_scalar(parse(_QUARTIC_ROOT, 2), 2, source=_QUARTIC_ROOT)
    v_sources = [f"e*y{i}*(y1^4 + y2^4)^(-1/4)" for i in (1, 2)]
    V = bind_vertical([parse(s, 2) for s in v_sources], 2, {"e": e})
    return MechanicalSystem(L, V, 2, params={"e": e},
                            domain_guard="y_nonzero", label="SYS-D")


def _sys_e_base(params: dict) -> tuple:
    """SYS-E's base and dimension: the parameter ``n`` (default 2) for a
    base of any dimension, else the base's own, which an ``n`` must match."""
    base = str(params.get("base", "SYS-C"))
    if base not in _BASES:
        raise UnknownBuiltin(f"SYS-E base {base!r} is not a known Lagrangian")
    dim = _BASES[base][0]
    n = _dimension(params, dim or 2)
    if dim is not None and n != dim:
        raise ConfigError(f"SYS-E base {base!r} has dimension {dim}, got n = {n}")
    return base, n


def _build_sys_e(params: dict) -> MechanicalSystem:
    _require(params, ("e",))
    e = real_parameter("e", params["e"])
    base, n = _sys_e_base(params)
    _, src_fn, guard = _BASES[base]
    src = src_fn(n)
    L = bind_scalar(parse(src, n), n, source=src)
    V = bind_vertical([parse(f"e*y{i}", n) for i in range(1, n + 1)], n, {"e": e})
    return MechanicalSystem(L, V, n, params={"e": e, "base": base},
                            domain_guard=guard, label=f"SYS-E[{base}]")


_CATALOG = [
    BuiltinEntry(
        id="EUCLID",
        description="Flat free system: L is the squared Euclidean velocity "
                    "norm in n dimensions, no external force.",
        n=2,
        default_params={"n": 2},
        required_params=(),
        reference="quadratic kinetic-energy baseline",
        domain_guard=None,
        build=_build_euclid,
        box=lambda params: _base_box("EUCLID", _dimension(params, 2)),
    ),
    BuiltinEntry(
        id="SYS-A",
        description="Linear oscillator L = y1^2 - x1^2 with velocity damping "
                    "V = -2c y1 (Liouville force, e = -2c); undamped at c = 0.",
        n=1,
        default_params={"c": 0.1},
        required_params=("c",),
        reference="damped harmonic oscillator",
        domain_guard=None,
        build=_build_sys_a,
        box=lambda params: _base_box("SYS-A", 1),
    ),
    BuiltinEntry(
        id="SYS-B",
        description="Riemannian-type Lagrangian (1 + x1^2) y1^2 + y2^2 with "
                    "position-dependent metric, no force.",
        n=2,
        default_params={},
        required_params=(),
        reference="surface-of-revolution style quadratic metric",
        domain_guard=None,
        build=_build_sys_b,
        box=lambda params: _base_box("SYS-B", 2),
    ),
    BuiltinEntry(
        id="SYS-C",
        description="Quartic-root Finsler energy sqrt(y1^4 + y2^4): nonzero "
                    "Cartan tensor, regular away from the coordinate axes.",
        n=2,
        default_params={},
        required_params=(),
        reference="fourth-root Finsler metric",
        domain_guard="y_nonzero",
        build=_build_sys_c,
        box=lambda params: _base_box("SYS-C", 2),
    ),
    BuiltinEntry(
        id="SYS-D",
        description="Quartic-root Finsler base with the normalized Liouville "
                    "force V = (e/F) y (zero-homogeneous; dissipative iff e < 0).",
        n=2,
        default_params={"e": -0.5},
        required_params=("e",),
        reference="normalized Liouville force on a Finsler base",
        domain_guard="y_nonzero",
        build=_build_sys_d,
        box=lambda params: _base_box("SYS-C", 2),
    ),
    BuiltinEntry(
        id="SYS-E",
        description="Liouville force family V = e y over a selectable base "
                    "Lagrangian (default the quartic-root Finsler base).",
        n=2,
        default_params={"e": -1.0, "base": "SYS-C"},
        required_params=("e",),
        reference="Liouville force family",
        domain_guard="y_nonzero",
        build=_build_sys_e,
        box=lambda params: _base_box(*_sys_e_base(params)),
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
