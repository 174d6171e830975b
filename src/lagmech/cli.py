"""Command-line interface.

One executable with five subcommands:

``catalog``    list the builtin systems as JSON
``inspect``    dump all pointwise tensors at the sample points
``classify``   run the metric/symplectic/dissipativity classification
``verify``     run the full identity suite and report max residuals
``simulate``   integrate an evolution, horizontal or geodesic curve

Configuration is a single JSON file (see docs/config.md) with flag
overrides for parameter sweeps; its sample points are read as one batch.
All numeric output is printed with 17 significant digits so regression
goldens are stable; identical config and seed produce byte-identical
output.  ``inspect`` sweeps the compiled ``inspect`` report
(:mod:`lagmech.compiled`), formats each clean chunk of samples field by
field, all points of the chunk in one pass (:func:`render_rows`), and
assembles the entries in sample order; the output is byte-identical to
rendering every point on its own with :func:`render_json`.

Exit codes: 0 ok; 2 config or expression error; 3 domain or singularity
failure at a requested point; 4 identity-suite tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import fields
from functools import cache
from itertools import chain

import numpy as np

from . import systems as _systems
from .errors import (
    ArityError,
    ConfigError,
    DomainError,
    FinslerModeError,
    ParseError,
    SingularMetric,
    UnboundParameter,
    UnknownBuiltin,
    VariableIndexError,
)
from .finsler import is_finsler_mode
from .mechanics import MechanicalSystem, _lanes, _report, classify, each_block, stack_points
from .phase import PhasePoint
from .sampling import sample_box
from .trajectories import (
    IntegratorConfig,
    energy_audit,
    integrate_evolution,
    integrate_geodesic,
    integrate_horizontal,
)
from .verify import run_verification

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IDENTITY = 4


# ---------------------------------------------------------------------------
# 17-significant-digit JSON rendering
# ---------------------------------------------------------------------------


_INLINE = 26  # a list prints on one line when each element is shorter


def _frame(items: list, pad: str, inline: bool) -> str:
    """A JSON list of rendered ``items`` at indentation ``pad``: on one
    line, or one item per line."""
    if inline:
        return "[" + ", ".join(items) + "]"
    return "[\n" + ",\n".join(f"{pad}  {r}" for r in items) + "\n" + pad + "]"


def _list(items: list, pad: str) -> str:
    """A JSON list of rendered ``items``, on one line when each is shorter
    than ``_INLINE`` characters and none breaks."""
    if not items:
        return "[]"
    return _frame(items, pad, all(len(r) < _INLINE and "\n" not in r for r in items))


def _object(pairs: list, pad: str) -> str:
    """A JSON object of (quoted key, rendered value) pairs at indentation
    ``pad``."""
    if not pairs:
        return "{}"
    return "{\n" + ",\n".join(f"{pad}  {k}: {v}" for k, v in pairs) + "\n" + pad + "}"


def render_rows(a, indent: int = 0) -> list:
    """``render_json(a[i], indent)`` of every slice ``a[i]`` of a float
    array along its leading axis.

    All entries are formatted in one ``%.17g`` pass, with one finiteness
    test for the ``null`` rule.  Then each nesting level, innermost first,
    is framed over all slices together by the rule of :func:`_list`, one
    row template per row filled in one pass.  A row that breaks holds an
    element of ``_INLINE`` or more characters, so the length test implies
    the no-newline test.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    cells = (("%.17g\0" * flat.size) % tuple(flat.tolist())).split("\0")[:-1]
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        cells[i] = "null"
    for axis in range(a.ndim - 1, 0, -1):
        k = a.shape[axis]
        rows = math.prod(a.shape[:axis])
        pad = "  " * (indent + axis - 1)
        row = {inline: _frame(["%s"] * k, pad, inline) + "\0" for inline in (True, False)}
        lengths = np.fromiter(map(len, cells), dtype=int, count=len(cells))
        inline = (lengths < _INLINE).reshape(rows, k).all(axis=1).tolist()
        cells = ("".join([row[i] for i in inline]) % tuple(cells)).split("\0")[:-1]
    return cells


def render_json(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (full round trip)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        return _object([(json.dumps(str(k)), render_json(v, indent + 1))
                        for k, v in obj.items()], pad)
    if isinstance(obj, (list, tuple)):
        return _list([render_json(v, indent + 1) for v in obj], pad)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return render_rows(obj[None], indent)[0]
        return render_json(obj.tolist(), indent)
    return json.dumps(obj)


def _emit(text: str, path: str | None):
    if path in (None, "-"):
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _section(cfg: dict, key: str, kind: type = dict):
    """``cfg[key]``, a JSON object (or list, for ``kind=list``); empty when
    absent or null."""
    value = cfg.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key!r} must be {what}, got {value!r}")
    return value


def _number(spec: dict, key: str, default) -> float:
    """``spec[key]`` (``default`` when absent) as a float; a JSON boolean is
    not a number."""
    value = spec.get(key, default)
    try:
        return float(value if not isinstance(value, bool) else None)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key!r} must be a number, got {value!r}") from err


def _integer(spec: dict, key: str, default: int) -> int:
    """``spec[key]`` (``default`` when absent) as an int; a fractional or
    non-finite value is an error, not truncated."""
    value = spec.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(spec, key, default)
    if not number.is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(number)


def _finite(values) -> bool:
    """Whether ``values`` are all finite numbers, none a boolean or string."""
    try:
        return {int, float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:  # an int past the float range
        return False


def _numbers(values, part: str, what: str) -> list:
    """``values``, a JSON list of finite numbers (:func:`_finite`)."""
    if not _finite(values):
        raise ConfigError(f"{part} of {what} must be finite numbers, got {values!r}")
    return values


def _point(item, what: str) -> PhasePoint:
    x, y = (item.get("x"), item.get("y")) if isinstance(item, dict) else (None, None)
    if not (isinstance(x, list) and isinstance(y, list) and len(x) == len(y)):
        raise ConfigError(f"{what} needs 'x' and 'y' lists of one length")
    z = _numbers(x + y, "the coordinates", what)
    return PhasePoint(z[:len(x)], z[len(x):])


def _points(items: list, n: int) -> PhasePoint:
    """Explicit sample points of dimension ``n`` as one batch: one pass
    checks the items' structure and dimension, one check all their
    coordinates.  Where that fails, the first bad item raises what
    reading it alone raises (structure, numbers, then dimension)."""
    rows = [item["x"] + item["y"] for item in items if isinstance(item, dict)
            and isinstance(item.get("x"), list) and isinstance(item.get("y"), list)
            and len(item["x"]) == len(item["y"]) == n]
    if len(rows) < len(items) or not _finite(list(chain.from_iterable(rows))):
        for item in items:  # raises at the first bad item
            if _point(item, "a sample point").n != n:
                raise ConfigError("sample point dimension mismatch")
    z = np.array(rows, dtype=float).T.copy()  # a contiguous row per coordinate
    return PhasePoint(z[:n], z[n:])


def _box(spec: dict, key: str) -> list:
    """``spec[key]``, one [lo, hi] pair of finite numbers per coordinate."""
    bounds = spec.get(key)
    if bounds is None:
        raise ConfigError("samples need both box_x and box_y bounds")
    if not (isinstance(bounds, list) and all(isinstance(b, list) and len(b) == 2 for b in bounds)):
        raise ConfigError(f"{key!r} must list one [lo, hi] pair per coordinate, got {bounds!r}")
    return [tuple(_numbers(b, "the bounds", repr(key))) for b in bounds]


def _tolerance(cfg: dict) -> float:
    """``tolerance`` (default 1e-8), a finite number > 0."""
    tol = _number(cfg, "tolerance", 1e-8)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"'tolerance' must be a finite number > 0, got {cfg['tolerance']!r}")
    return tol


def _parse_param(text: str):
    if "=" not in text:
        raise ConfigError(f"--param expects name=value, got {text!r}")
    name, raw = text.split("=", 1)
    name = name.strip()
    raw = raw.strip()
    try:
        return name, float(raw)
    except ValueError:
        return name, raw


def build_system(cfg: dict) -> MechanicalSystem:
    """Construct a system from the ``system`` config section."""
    spec = cfg.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'system' object")
    params = dict(_section(spec, "params"))
    if "builtin" in spec:
        return _systems.instantiate(str(spec["builtin"]), params)
    if "n" not in spec:
        raise ConfigError("expression systems need an integer 'n'")
    n = _integer(spec, "n", None)
    if "lagrangian" not in spec:
        raise ConfigError("expression systems need a 'lagrangian' source")
    return _systems.from_sources(n, str(spec["lagrangian"]), spec.get("force"), params,
                                 spec.get("domain_guard"), spec.get("label", "custom"))


def build_samples(cfg: dict, sys: MechanicalSystem, seed: int) -> PhasePoint:
    """Sample points from the config, or the builtin default box, as one
    batch (:func:`~lagmech.mechanics.stack_points`)."""
    spec = _section(cfg, "samples")
    if "points" in spec:
        items = _section(spec, "points", list)
        if not items:
            raise ConfigError("'points' must list at least one point")
        return _points(items, sys.n)
    count = _integer(spec, "count", 200)
    if count < 1:
        raise ConfigError(f"'count' must be at least 1, got {count}")
    mode = str(spec.get("mode", "halton"))
    if "box_x" in spec or "box_y" in spec:
        box_x, box_y = _box(spec, "box_x"), _box(spec, "box_y")
        if len(box_x) != sys.n or len(box_y) != sys.n:
            raise ConfigError("sample box dimension mismatch")
    else:
        system = _section(cfg, "system")
        builtin = system.get("builtin")
        entry = _systems.find(str(builtin)) if builtin else None
        if entry is None:
            raise ConfigError("expression systems need an explicit 'samples' box")
        box_x, box_y = entry.box(dict(_section(system, "params")))
    off_zero_section = sys.domain_guard == "y_nonzero" or is_finsler_mode(
        sys, sample_box(box_x, box_y, 4, mode="halton", min_y_norm=0.15))
    return stack_points(sample_box(box_x, box_y, count, mode=mode, seed=seed,
                                   min_y_norm=0.1 if off_zero_section else 0.0))


def _integrator_config(cfg: dict, args) -> IntegratorConfig:
    spec = dict(_section(cfg, "integrator"))
    if args.step is not None:
        spec["step"] = args.step
    if args.t_end is not None:
        spec["t_end"] = args.t_end
    read = {str: lambda spec, key, default: str(spec.get(key, default)),
            float: _number, int: _integer}
    ic = IntegratorConfig(**{f.name: read[type(f.default)](spec, f.name, f.default)
                             for f in fields(IntegratorConfig)})
    ic.validate()
    return ic


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    doc = {"systems": [entry.to_dict() for entry in _systems.catalog()]}
    _emit(render_json(doc), args.out)
    return EXIT_OK


def _inspect_entries(start: int, p: PhasePoint, values: dict) -> list:
    """The rendered entries of points evaluated together, at a batch ``p``
    (``values`` with a trailing point axis) or a single point.  Each field
    is formatted in one pass over all the points, and the entries fill one
    entry template in one pass."""
    count = _lanes(p)

    def slices(v):  # one row per point, from a batch's trailing point axis
        v = np.asarray(v, dtype=float)
        return np.moveaxis(v, -1, 0) if count > 1 else v[None]

    # an entry is at indent 2 of {"points": [...]}, its fields at 3
    point = _object([('"x"', "%s"), ('"y"', "%s")], "      ")
    entry = _object([('"index"', "%s"), ('"point"', point)]
                    + [(json.dumps(name).replace("%", "%%"), "%s") for name in values], "    ")
    cells = zip(range(start, start + count), render_rows(slices(np.array(p.x)), 4),
                render_rows(slices(np.array(p.y)), 4),
                *(render_rows(slices(v), 3) for v in values.values()))
    return (((entry + "\0") * count) % tuple(chain.from_iterable(cells))).split("\0")[:-1]


def cmd_inspect(cfg: dict, args) -> int:
    sys_ = build_system(cfg)
    samples = build_samples(cfg, sys_, _integer(cfg, "seed", 0))
    entries = []
    hit_singular = False
    for start, p, values, err in each_block(samples, _report(sys_, "inspect")):
        if err is None:
            entries += _inspect_entries(start, p, values)
            continue
        hit_singular = True
        entries.append(render_json({"index": start, "point": {"x": list(p.x), "y": list(p.y)},
                                    "error": type(err).__name__, "detail": str(err)}, 2))
    _emit(_object([('"points"', _list(entries, "  "))], ""), args.out)
    return EXIT_DOMAIN if hit_singular else EXIT_OK


def cmd_classify(cfg: dict, args) -> int:
    sys_ = build_system(cfg)
    samples = build_samples(cfg, sys_, _integer(cfg, "seed", 0))
    report = classify(sys_, samples, tol=_tolerance(cfg))
    _emit(render_json(report.to_dict()), args.out)
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    sys_ = build_system(cfg)
    samples = build_samples(cfg, sys_, _integer(cfg, "seed", 0))
    report = run_verification(sys_, samples, tol=_tolerance(cfg))
    _emit(render_json(report), args.out)
    if report["singular_points"]:
        return EXIT_DOMAIN
    if report["offenders"]:
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    sys_ = build_system(cfg)
    p0 = _point(cfg.get("initial"), "simulate's 'initial' point")
    if p0.n != sys_.n:
        raise ConfigError("initial point dimension mismatch")
    ic = _integrator_config(cfg, args)
    fmt = str(_section(cfg, "output").get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    curve = args.curve
    try:
        if curve == "evolution":
            traj = integrate_evolution(sys_, p0, ic)
        elif curve == "horizontal":
            traj = integrate_horizontal(sys_, p0, ic)
        else:
            traj = integrate_geodesic(sys_, p0, ic)
    except FinslerModeError as err:
        raise ConfigError(str(err)) from err
    if len(traj.t) <= 1 and traj.status != "completed":
        _sys.stderr.write(render_json({"status": traj.status}) + "\n")
        return EXIT_DOMAIN

    if args.out and args.out.endswith(".json"):
        fmt = "json"
    if fmt == "json":
        _emit(render_json(traj.to_dict()), args.out)
    else:
        _emit(traj.to_csv(), args.out)

    if curve == "evolution":
        max_err, monotone = energy_audit(traj, sys_)
        audit = {
            "max_balance_error": max_err,
            "monotone_nonincreasing": monotone,
            "status": traj.status,
        }
    else:
        e0 = traj.energy[0]
        drift = float(np.abs(traj.energy - e0).max() / (1.0 + abs(e0)))
        audit = {"relative_energy_drift": drift, "status": traj.status}
    _sys.stderr.write(render_json(audit) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache  # one parser a process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lagmech",
        description="Geometry engine for Lagrangian and Finslerian "
                    "mechanical systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("catalog", False),
        ("inspect", True),
        ("classify", True),
        ("verify", True),
        ("simulate", True),
    ):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config", help="path to the JSON run configuration")
            p.add_argument("--param", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="override a system parameter (repeatable)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the sampling seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "simulate":
            p.add_argument("--curve", choices=("evolution", "horizontal", "geodesic"),
                           default="evolution")
            p.add_argument("--t-end", dest="t_end", type=float, default=None)
            p.add_argument("--step", type=float, default=None)
    return ap


_COMMANDS = {"inspect": cmd_inspect, "classify": cmd_classify, "verify": cmd_verify,
             "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        cfg = _load_config(args.config)
        overrides = dict(_parse_param(t) for t in args.param)
        system = cfg.get("system")
        if overrides and isinstance(system, dict):
            system["params"] = {**_section(system, "params"), **overrides}
        if args.seed is not None:
            cfg["seed"] = args.seed
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParseError, ArityError, VariableIndexError,
            UnboundParameter, UnknownBuiltin) as err:
        _sys.stderr.write(f"error: {err}\n")
        return EXIT_CONFIG
    except (SingularMetric, DomainError) as err:
        _sys.stderr.write(f"error: {err}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
