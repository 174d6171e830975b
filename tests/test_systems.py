"""Builtin catalog: lookup, instantiation, and the documented properties."""

import math

import numpy as np
import pytest

from lagmech.errors import UnboundParameter, UnknownBuiltin
from lagmech.mechanics import PointGeometry
from lagmech.phase import PhasePoint
from lagmech.systems import catalog, find, instantiate, standard_samples

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
