"""Builtin catalog: lookup, instantiation, and the documented properties."""

import math

import numpy as np
import pytest

from lagmech.errors import ConfigError, ParseError, UnboundParameter, UnknownBuiltin
from lagmech.mechanics import PointGeometry
from lagmech.phase import PhasePoint
from lagmech.systems import catalog, find, from_sources, instantiate, standard_samples

SQRT2 = math.sqrt(2.0)


def test_catalog_contents():
    ids = [entry.id for entry in catalog()]
    for required in ("EUCLID", "SYS-A", "SYS-B", "SYS-C", "SYS-D", "SYS-E"):
        assert required in ids
    assert len(ids) == len(set(ids))


def test_lookup_unknown_returns_none():
    assert find("NOT-A-SYSTEM") is None


def test_instantiate_unknown_raises():
    with pytest.raises(UnknownBuiltin):
        instantiate("NOT-A-SYSTEM")


def test_sys_a_requires_damping_parameter():
    with pytest.raises(UnboundParameter) as exc:
        instantiate("SYS-A", {})
    assert exc.value.name == "c"
    sys_ = instantiate("SYS-A", {"c": 0.1})
    assert sys_.n == 1
    assert sys_.params["e"] == -0.2


def test_sys_d_dissipative_for_negative_e():
    sys_ = instantiate("SYS-D", {"e": -0.5})
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    assert PointGeometry(sys_, p).power < 0.0
    assert PointGeometry(instantiate("SYS-D", {"e": 0.5}), p).power > 0.0


def test_sys_e_euclid_worked_example():
    sys_ = instantiate("SYS-E", {"e": -1.0, "base": "EUCLID"})
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    assert sys_.V.at(p) == [-1.0, -2.0]
    assert PointGeometry(sys_, p).power == pytest.approx(-5.0, abs=1e-14)


def test_sys_c_metric_at_unit_diagonal(sys_c):
    g = PointGeometry(sys_c.free(), PhasePoint((0.0, 0.0), (1.0, 1.0))).metric
    assert g.entries[0, 0] == pytest.approx(SQRT2, rel=1e-12)
    assert g.entries[0, 1] == pytest.approx(-SQRT2 / 2.0, rel=1e-12)


def test_euclid_dimension_configurable():
    sys_ = instantiate("EUCLID", {"n": 4})
    assert sys_.n == 4
    g = PointGeometry(sys_.free(), PhasePoint((0.0,) * 4, (1.0, 2.0, 3.0, 4.0))).metric
    assert np.array_equal(g.entries, np.eye(4))


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_defaults_regular_on_documented_box(entry):
    sys_ = entry.build(dict(entry.default_params))
    pts = standard_samples(entry.id, dict(entry.default_params), count=25)
    for p in pts:
        PointGeometry(sys_.free(), p)  # must not raise


def test_sys_e_propositions_over_finsler_base(samples_c):
    sys_ = instantiate("SYS-E", {"e": -1.0, "base": "SYS-C"})
    for p in samples_c[:25]:
        b = PointGeometry(sys_, p)
        g = b.metric.entries
        assert np.abs(b.helicoidal).max() <= 1e-10
        assert np.abs(b.gbar - (-0.5) * g).max() <= 1e-8 * (1.0 + np.abs(g).max())


def test_sys_d_propositions(samples_c):
    sys_ = instantiate("SYS-D", {"e": -0.5})
    for p in samples_c[:15]:
        b = PointGeometry(sys_, p)
        assert np.abs(b.helicoidal).max() <= 1e-10          # (i)
        assert np.abs(b.horizontal_dE()).max() <= 1e-8      # (ii)
        assert b.power < 0.0                                 # (iii), e < 0


def test_sys_e_rejects_unknown_base():
    with pytest.raises(UnknownBuiltin):
        instantiate("SYS-E", {"e": -1.0, "base": "SYS-D"})


def test_catalog_entry_serialization():
    d = find("SYS-D").to_dict()
    assert d["id"] == "SYS-D"
    assert d["required_params"] == ["e"]
    assert d["domain_guard"] == "y_nonzero"


_Q = "(y1^4 + y2^4)^(1/2)"
_X1, _Y2, _X15, _Y03 = (-1.0, 1.0), (-2.0, 2.0), (-1.5, 1.5), (0.3, 2.0)


@pytest.mark.parametrize("builtin, params, n, source, force, bound, label, guard, box", [
    ("EUCLID", {"n": 2}, 2, "y1^2 + y2^2", None, {"n": 2}, "EUCLID", None, (_X1, _Y2)),
    ("EUCLID", {"n": 1}, 1, "y1^2", None, {"n": 1}, "EUCLID", None, (_X1, _Y2)),
    ("EUCLID", {"n": 3}, 3, "y1^2 + y2^2 + y3^2", None, {"n": 3}, "EUCLID", None, (_X1, _Y2)),
    ("EUCLID", {"n": 6}, 6, " + ".join(f"y{i}^2" for i in range(1, 7)), None, {"n": 6}, "EUCLID",
     None, (_X1, _Y2)),
    ("SYS-A", {"c": 0.1}, 1, "y1^2 - x1^2", ("e * y1",), {"c": 0.1, "e": -0.2}, "SYS-A", None,
     (_X15, _Y2)),
    ("SYS-B", {}, 2, "(1 + x1^2)*y1^2 + y2^2", None, {}, "SYS-B", None, (_X15, _Y2)),
    ("SYS-B", {"n": 3}, 2, "(1 + x1^2)*y1^2 + y2^2", None, {}, "SYS-B", None, (_X15, _Y2)),
    ("SYS-C", {}, 2, _Q, None, {}, "SYS-C", "y_nonzero", (_X1, _Y03)),
    ("SYS-D", {"e": -0.5}, 2, _Q, tuple(f"e * y{i} * (y1^4 + y2^4)^(-1 / 4)" for i in (1, 2)),
     {"e": -0.5}, "SYS-D", "y_nonzero", (_X1, _Y03)),
    ("SYS-E", {"e": -1.0}, 2, _Q, ("e * y1", "e * y2"), {"e": -1.0, "base": "SYS-C"},
     "SYS-E[SYS-C]", "y_nonzero", (_X1, _Y03)),
    ("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 6}, 6, " + ".join(f"y{i}^2" for i in range(1, 7)),
     tuple(f"e * y{i}" for i in range(1, 7)), {"e": -1.0, "base": "EUCLID"}, "SYS-E[EUCLID]", None,
     (_X1, _Y2)),
    ("SYS-E", {"e": -1.0, "base": "SYS-A"}, 1, "y1^2 - x1^2", ("e * y1",),
     {"e": -1.0, "base": "SYS-A"}, "SYS-E[SYS-A]", None, (_X15, _Y2)),
    ("SYS-E", {"e": -1.0, "base": "SYS-B"}, 2, "(1 + x1^2)*y1^2 + y2^2", ("e * y1", "e * y2"),
     {"e": -1.0, "base": "SYS-B"}, "SYS-E[SYS-B]", None, (_X15, _Y2)),
    ("SYS-E", {"e": -1.0, "base": "SYS-C"}, 2, _Q, ("e * y1", "e * y2"),
     {"e": -1.0, "base": "SYS-C"}, "SYS-E[SYS-C]", "y_nonzero", (_X1, _Y03)),
])
def test_builtin_table(builtin, params, n, source, force, bound, label, guard, box):
    # each builtin is its named sources: the base's Lagrangian, the force
    # rule's components, the bound parameters, and the base's box and guard
    sys_ = instantiate(builtin, params)
    assert (sys_.n, sys_.L.source, sys_.params, sys_.label, sys_.domain_guard) == \
        (n, source, bound, label, guard)
    assert tuple(sys_.V.sources) == (force or ("0",) * n)
    assert find(builtin).box(params) == ([list(box[0])] * n, [list(box[1])] * n)


@pytest.mark.parametrize("builtin, params", [
    ("EUCLID", {"n": 0}), ("EUCLID", {"n": -2}), ("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 0}),
])
def test_builtin_dimension_below_one_is_a_config_error(builtin, params):
    # n = 0 built an empty Lagrangian source and failed as a parse error
    for make in (lambda: instantiate(builtin, params), lambda: find(builtin).box(params)):
        with pytest.raises(ConfigError, match="parameter 'n' must be at least 1"):
            make()


def test_from_sources_checks_before_it_binds():
    with pytest.raises(ConfigError, match="dimension n must be at least 1, got 0"):
        from_sources(0, "1")
    with pytest.raises(ConfigError, match="'force' must be a list"):
        from_sources(2, "y1^2 + y2^2", "y1")
    with pytest.raises(ConfigError, match="force has 1 components but the dimension is 2"):
        from_sources(2, "y1^2 + y2^2", ["y1"])
    # every source is parsed before any parameter is bound
    with pytest.raises(ParseError):
        from_sources(2, "k*y1^2 + y2^2", ["e*y1", "(y2"])
    with pytest.raises(UnboundParameter) as exc:
        from_sources(2, "k*y1^2 + y2^2", ["e*y1", "y2"])
    assert exc.value.name == "k"
    sys_ = from_sources(2, "k*y1^2 + y2^2", ["e*y1", "0"], {"k": 2.0, "e": -1.0},
                        "y_nonzero", "mine")
    assert (sys_.label, sys_.domain_guard, sys_.params) == ("mine", "y_nonzero", {"k": 2.0, "e": -1.0})
    assert sys_.V.at(PhasePoint((0.0, 0.0), (3.0, 1.0))) == [-3.0, 0.0]
