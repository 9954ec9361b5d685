"""The public API surface: everything advertised imports and is documented."""

import importlib
import inspect

import pytest

import repro


#: The public modules: every package root plus the modules users import
#: directly.
MODULES = [
    "repro.analysis",
    "repro.core",
    "repro.db",
    "repro.engine",
    "repro.errors",
    "repro.experiments",
    "repro.experiments.spec",
    "repro.gateway",
    "repro.gateway.client",
    "repro.metrics",
    "repro.protocols",
    "repro.protocols.registry",
    "repro.results",
    "repro.system",
    "repro.telemetry",
    "repro.telemetry.events",
    "repro.telemetry.tracer",
    "repro.txn",
    "repro.values",
    "repro.workloads",
    "repro.workloads.scenarios",
]


@pytest.mark.parametrize("module_name", ["repro", *MODULES])
def test_all_exports_resolve(module_name):
    # Package roots resolve their exports on first access (PEP 562), so
    # a typo in an export table only shows when the name is looked up.
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    for name in names:
        assert getattr(module, name) is not None, name
    assert set(names) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("module_name", MODULES)
def test_subpackages_import_and_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, module_name


def test_public_classes_have_docstrings():
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert missing == []


def test_protocol_names_are_distinct():
    protocols = [
        repro.BasicOCC(),
        repro.OCCBroadcastCommit(),
        repro.SerialExecution(),
        repro.TwoPhaseLockingPA(),
        repro.Wait50(),
        repro.SCC2S(),
        repro.SCCCB(),
        repro.SCCVW(),
        repro.SCCDC(),
        repro.SCCkS(k=4),
    ]
    names = [p.name for p in protocols]
    assert len(set(names)) == len(names)


def test_quickstart_docstring_example_runs():
    # The module docstring promises a working quickstart; hold it to that
    # (scale knobs reduced so the whole suite stays fast).
    from repro import Experiment

    results = (
        Experiment.scenario("paper-baseline")
        .protocols("scc-2s", "occ-bc")
        .rates(50, 100)
        .transactions(120)
        .warmup(12)
        .replications(1)
        .run()
    )
    assert set(results) == {"SCC-2S", "OCC-BC"}
    assert len(results["SCC-2S"].missed_ratio()) == 2


def test_low_level_building_blocks_still_run():
    # The pre-spec surface stays public for custom harnesses.
    from repro import (
        RTDBSystem,
        RandomStreams,
        SCC2S,
        TransactionClass,
        WorkloadGenerator,
    )

    streams = RandomStreams(seed=42)
    generator = WorkloadGenerator(
        classes=[
            TransactionClass(
                "base", num_steps=16, write_probability=0.25, slack_factor=2.0
            )
        ],
        num_pages=1000,
        arrival_rate=50.0,
        step_duration=0.006,
        streams=streams,
    )
    system = RTDBSystem(protocol=SCC2S(), num_pages=1000)
    system.load_workload(generator.generate(100))
    system.run()
    summary = system.metrics.summary()
    assert summary.committed == 100


def test_registry_protocol_names_match_instances():
    # Every registered family is constructible by name and the default
    # spec label matches a real protocol instance.
    from repro import ProtocolSpec, available_protocols
    from repro.protocols.base import CCProtocol

    assert {
        "scc-2s", "scc-ks", "scc-cb", "scc-dc", "scc-vw",
        "2pl-pa", "occ", "occ-bc", "wait-50", "serial",
    } <= set(available_protocols())
    for family in available_protocols():
        spec = ProtocolSpec.create(family)
        protocol = spec.build()
        assert isinstance(protocol, CCProtocol)
