"""The workload kinds beyond each axis's default, loaded on first use."""

import pytest

import repro.workloads
from repro.errors import ConfigurationError
from repro.workloads import (
    ArrivalSpec,
    PoissonSpec,
    access_pattern_from_dict,
    arrival_spec_from_dict,
    deadline_policy_from_dict,
)
from repro.workloads import extensions

#: Per axis: its ``*_from_dict``, a payload naming each extension kind,
#: and the name the class of that kind is exported under.
AXES = {
    "access": (access_pattern_from_dict, {
        "zipfian": ({"theta": 0.9}, "ZipfianAccess"),
        "hotspot": ({}, "HotspotAccess"),
        "partitioned": ({}, "PartitionedAccess"),
    }),
    "arrival": (arrival_spec_from_dict, {
        "mmpp": ({"burst_factor": 6.0}, "MMPPSpec"),
        "diurnal": ({"period": 30.0}, "DiurnalSpec"),
        "trace": ({"times": [0.5, 1.0, 2.0]}, "TraceSpec"),
    }),
    "deadline": (deadline_policy_from_dict, {
        "fixed-offset": ({"offset": 0.25}, "FixedOffsetDeadlines"),
    }),
}


def test_payloads_resolve_to_the_classes_the_package_exports():
    for from_dict, kinds in AXES.values():
        for kind, (params, export) in kinds.items():
            built = from_dict({"kind": kind, **params})
            cls = getattr(repro.workloads, export)
            assert cls is getattr(extensions, export), export
            assert type(built) is cls, kind
            assert built.kind == kind
            assert from_dict(built.to_dict()) == built


def test_unknown_kinds_list_every_kind_of_their_axis():
    defaults = {"access": "uniform", "arrival": "poisson", "deadline": "slack"}
    for axis, (from_dict, kinds) in AXES.items():
        expected = sorted([defaults[axis], *kinds])
        for kind in ("nonexistent", None, ["zipfian"]):
            with pytest.raises(ConfigurationError) as caught:
                from_dict({"kind": kind})
            assert str(caught.value) == (
                f"unknown {axis} kind {kind!r}; choose from {expected}"
            )


def test_arrival_spec_is_a_plain_abc():
    # The interface cannot be instantiated; a concrete spec is a frozen
    # record whose dict form is its kind followed by its fields.
    with pytest.raises(TypeError):
        ArrivalSpec()
    poisson = PoissonSpec()
    assert poisson.to_dict() == {"kind": "poisson"}
    with pytest.raises(AttributeError):
        poisson.rate = 1.0
    mmpp = repro.workloads.MMPPSpec(burst_factor=6.0)
    assert isinstance(mmpp, ArrivalSpec)
    assert mmpp.to_dict() == {
        "kind": "mmpp", "burst_factor": 6.0, "on_fraction": 0.25, "mean_cycle": 10.0,
    }
    with pytest.raises(AttributeError):
        mmpp.burst_factor = 2.0
    with pytest.raises(AttributeError):
        del mmpp.burst_factor
