"""The workload kinds beyond each axis's default, loaded on first use."""

import dataclasses

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
    # Only the concrete specs are frozen dataclasses; the interface
    # builds no dataclass machinery of its own.
    assert not dataclasses.is_dataclass(ArrivalSpec)
    with pytest.raises(TypeError):
        ArrivalSpec()
    assert dataclasses.is_dataclass(PoissonSpec)
    assert PoissonSpec().to_dict() == {"kind": "poisson"}
    mmpp = repro.workloads.MMPPSpec(burst_factor=6.0)
    assert isinstance(mmpp, ArrivalSpec)
    assert mmpp.to_dict() == {"kind": "mmpp", **dataclasses.asdict(mmpp)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        mmpp.burst_factor = 2.0
