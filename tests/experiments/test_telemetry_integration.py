"""Sweep-level telemetry: the event bus, trace files, and spec plumbing."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.experiments.spec import Experiment, ExperimentSpec
from repro.results import RunStore
from repro.telemetry.events import TraceEvent, is_marker, iter_trace

SCALE = dict(
    num_transactions=80,
    warmup_commits=8,
    replications=1,
    arrival_rates=(60.0, 120.0),
    check_serializability=False,
)


def smoke_config():
    return baseline_config(**SCALE)


def test_on_event_publishes_the_full_sweep_lifecycle():
    events = []
    results = run_sweep(
        {"SCC-2S": "scc-2s"}, smoke_config(), on_event=events.append,
    )
    assert results["SCC-2S"].replications
    kinds = [event.kind for event in events]
    # Serial executor: started + completed + outcome per cell, in order.
    assert kinds.count("cell_started") == 2
    assert kinds.count("cell_completed") == 2
    assert kinds.count("cell_outcome") == 2
    outcomes = [event for event in events if event.kind == "cell_outcome"]
    for event in outcomes:
        assert event.payload["ok"] is True
        assert event.payload["cached"] is False
        assert event.payload["summary"]["committed"] > 0
        telemetry = event.payload["telemetry"]
        assert telemetry["counters"]["commits"] > 0
        assert telemetry["wall_clock"] > 0
        json.dumps(event.to_dict())  # stream must stay JSON-ready


def test_store_cells_replay_on_the_bus_as_cached(tmp_path):
    store_path = tmp_path / "runs.jsonl"
    run_sweep({"SCC-2S": "scc-2s"}, smoke_config(), store=store_path)
    events = []
    run_sweep(
        {"SCC-2S": "scc-2s"}, smoke_config(), store=store_path,
        on_event=events.append,
    )
    outcomes = [e for e in events if e.kind == "cell_outcome"]
    assert len(outcomes) == 2
    assert all(e.payload["cached"] for e in outcomes)
    # Cached outcomes carry the stored telemetry block back too.
    assert all(e.payload["telemetry"] is not None for e in outcomes)


def test_store_records_carry_telemetry(tmp_path):
    store_path = tmp_path / "runs.jsonl"
    run_sweep({"SCC-2S": "scc-2s"}, smoke_config(), store=store_path)
    records = RunStore(store_path).records()
    assert records
    for record in records:
        telemetry = record.telemetry
        assert telemetry["schema"] == 1
        assert telemetry["counters"]["arrivals"] >= telemetry["counters"]["commits"]
        assert telemetry["events_fired"] > 0


def test_trace_writes_markers_and_valid_events(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_sweep({"SCC-2S": "scc-2s"}, smoke_config(), trace=trace_path)
    markers, events = [], []
    for payload in iter_trace(trace_path):
        if is_marker(payload):
            markers.append(payload)
        else:
            events.append(TraceEvent.from_dict(payload))  # validates
    assert [m["marker"] for m in markers] == ["cell_start", "cell_start"]
    assert markers[0]["protocol"] == "SCC-2S"
    assert {m["arrival_rate"] for m in markers} == {60.0, 120.0}
    assert events
    kinds = {event.kind for event in events}
    assert {"txn_start", "commit", "shadow_fork"} <= kinds


def test_trace_lanes_restart_at_cell_boundaries(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_sweep({"SCC-2S": "scc-2s"}, smoke_config(), trace=trace_path)
    cell_min_lanes = []
    current: list = []
    for payload in iter_trace(trace_path):
        if is_marker(payload):
            if current:
                cell_min_lanes.append(min(current))
            current = []
        elif payload["lane"] is not None:
            current.append(payload["lane"])
    if current:
        cell_min_lanes.append(min(current))
    assert cell_min_lanes == [0, 0]


def test_trace_requires_the_serial_executor(tmp_path):
    with pytest.raises(ConfigurationError, match="serial"):
        run_sweep(
            {"SCC-2S": "scc-2s"}, smoke_config(),
            trace=tmp_path / "trace.jsonl", workers=2,
        )


# ----------------------------------------------------------------------
# ExperimentSpec telemetry block
# ----------------------------------------------------------------------


def test_spec_telemetry_round_trips_through_json():
    spec = ExperimentSpec.create(
        ["scc-2s"], telemetry={"trace": "events.jsonl", "log_level": "debug"},
    )
    rebuilt = ExperimentSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.telemetry == {"trace": "events.jsonl", "log_level": "debug"}


def test_spec_rejects_malformed_telemetry():
    with pytest.raises(ConfigurationError, match="telemetry keys"):
        ExperimentSpec.create(["scc-2s"], telemetry={"tracing": "x"})
    with pytest.raises(ConfigurationError, match="log_level"):
        ExperimentSpec.create(["scc-2s"], telemetry={"log_level": "loud"})
    with pytest.raises(ConfigurationError, match="must be a dict"):
        ExperimentSpec.create(["scc-2s"], telemetry="events.jsonl")


def test_builder_telemetry_method_and_from_spec_copy():
    spec = (
        Experiment.baseline()
        .protocols("scc-2s")
        .telemetry(trace="events.jsonl")
        .telemetry(log_level="warning")
        .build()
    )
    assert spec.telemetry == {"trace": "events.jsonl", "log_level": "warning"}
    derived = Experiment.from_spec(spec).build()
    assert derived.telemetry == spec.telemetry


def test_spec_run_uses_the_telemetry_trace_path(tmp_path):
    trace_path = tmp_path / "spec-trace.jsonl"
    spec = ExperimentSpec.create(
        ["scc-2s"],
        arrival_rates=(60.0,),
        num_transactions=80,
        warmup_commits=8,
        replications=1,
        telemetry={"trace": str(trace_path)},
    )
    results = spec.run()
    assert results["SCC-2S"].replications
    assert trace_path.exists()
    assert any(not is_marker(p) for p in iter_trace(trace_path))


def test_spec_run_trace_kwarg_overrides_the_spec(tmp_path):
    spec_path = tmp_path / "spec-trace.jsonl"
    override_path = tmp_path / "override-trace.jsonl"
    spec = ExperimentSpec.create(
        ["scc-2s"],
        arrival_rates=(60.0,),
        num_transactions=80,
        warmup_commits=8,
        replications=1,
        telemetry={"trace": str(spec_path)},
    )
    spec.run(trace=override_path)
    assert override_path.exists()
    assert not spec_path.exists()
