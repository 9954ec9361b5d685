"""Tests for the ASCII timeline recorder."""

import pytest

from repro.analysis.timeline import TimelineRecorder
from repro.core.scc_2s import SCC2S
from repro.errors import ConfigurationError
from repro.workloads.generator import fixed_workload
from tests.conftest import R, W, build_system, make_class


def run_fig2b(recorder):
    protocol = SCC2S()
    recorder.attach(protocol)
    specs = fixed_workload(
        programs=[
            [W(0), R(1), R(2)],
            [R(3), R(0), R(4), R(5)],
        ],
        arrivals=[0.0, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=16)
    system.load_workload(specs)
    system.run()
    return protocol, system


def test_records_full_lifecycle():
    recorder = TimelineRecorder()
    run_fig2b(recorder)
    kinds = [e.kind for e in recorder.events]
    assert "spawn" in kinds
    assert "block" in kinds
    assert "promote" in kinds
    assert "commit" in kinds
    assert "kill" in kinds
    # Figure 2(b): no restart happens under SCC.
    assert "restart" not in kinds


def test_event_sequence_for_victim_transaction():
    recorder = TimelineRecorder()
    run_fig2b(recorder)
    kinds = [e.kind for e in recorder.events_for(1)]
    # T1: optimistic spawn; speculative spawn+block (order depends on the
    # fork instant); the optimistic dies at T0's commit; the shadow is
    # promoted, finishes and commits.
    assert kinds[0] == "spawn"
    assert kinds[-2:] == ["finish", "commit"]
    assert "promote" in kinds
    assert kinds.index("kill") < kinds.index("promote")


def test_lanes_per_transaction():
    recorder = TimelineRecorder()
    run_fig2b(recorder)
    assert len(recorder.lanes_for(0)) == 1  # never speculated
    assert len(recorder.lanes_for(1)) == 2  # optimistic + shadow


def test_render_produces_expected_markers():
    recorder = TimelineRecorder()
    run_fig2b(recorder)
    art = recorder.render(width=40)
    lines = art.splitlines()
    assert len(lines) == 4  # header + 3 lanes
    assert "T0" in art and "T1" in art
    body = "\n".join(lines[1:])
    for marker in "SBPCA":
        assert marker in body, marker
    # The promoted lane shows a blocked stretch then execution.
    promoted_line = next(line for line in lines[1:] if "P" in line)
    assert "." in promoted_line
    assert "=" in promoted_line


def test_render_empty_and_validation():
    recorder = TimelineRecorder()
    assert "no shadow events" in recorder.render()
    run_fig2b(recorder)
    with pytest.raises(ConfigurationError):
        recorder.render(width=4)


def test_attach_refuses_second_observer():
    recorder = TimelineRecorder()
    protocol, _ = run_fig2b(recorder)
    with pytest.raises(ConfigurationError):
        TimelineRecorder().attach(protocol)


def test_observer_disabled_costs_nothing():
    # A protocol without observer runs identically (same commit times).
    from tests.conftest import commit_time_of

    with_rec = TimelineRecorder()
    _, traced = run_fig2b(with_rec)

    protocol = SCC2S()
    specs = fixed_workload(
        programs=[
            [W(0), R(1), R(2)],
            [R(3), R(0), R(4), R(5)],
        ],
        arrivals=[0.0, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=16)
    system.load_workload(specs)
    system.run()
    assert commit_time_of(system, 1) == commit_time_of(traced, 1)


# ----------------------------------------------------------------------
# structured rows and trace-file ingestion
# ----------------------------------------------------------------------


def run_fig2b_traced():
    """The Figure 2(b) scenario again, observed through the tracer."""
    from repro.metrics.stats import MetricsCollector
    from repro.system.model import RTDBSystem
    from repro.system.resources import InfiniteResources
    from repro.telemetry.tracer import MemoryTracer

    protocol = SCC2S()
    specs = fixed_workload(
        programs=[
            [W(0), R(1), R(2)],
            [R(3), R(0), R(4), R(5)],
        ],
        arrivals=[0.0, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    tracer = MemoryTracer()
    # The tracer must be there at construction: protocols cache it at
    # bind time (the zero-cost-when-disabled contract).
    system = RTDBSystem(
        protocol=protocol,
        num_pages=16,
        resources=InfiniteResources(cpu_time=1.0, io_time=0.0),
        metrics=MetricsCollector(),
        record_history=True,
        tracer=tracer,
    )
    system.load_workload(specs)
    system.run()
    return tracer


def test_rows_mirror_render():
    recorder = TimelineRecorder()
    run_fig2b(recorder)
    rows = recorder.rows(width=40)
    art = recorder.render(width=40)
    assert len(rows) == 3
    # Every label and painted track appears verbatim in the rendering.
    for row in rows:
        assert row.label in art
        assert row.track in art
    promoted = [row for row in rows if row.promoted]
    assert len(promoted) == 1
    assert promoted[0].mode == "speculative"


def test_rows_empty_without_events_and_validates_width():
    recorder = TimelineRecorder()
    assert recorder.rows() == []
    run_fig2b(recorder)
    with pytest.raises(ConfigurationError):
        recorder.rows(width=4)


def test_from_trace_matches_live_observer_timeline():
    live = TimelineRecorder()
    run_fig2b(live)
    tracer = run_fig2b_traced()
    replayed = TimelineRecorder.from_trace(tracer.events)
    # Same lanes, same per-lane shadow lifecycle, same rendering.
    live_kinds = {
        lane: [e.kind for e in live.events_for(lane)]
        for lane in (0, 1)
    }
    replay_kinds = {
        lane: [e.kind for e in replayed.events_for(lane)]
        for lane in (0, 1)
    }
    assert replay_kinds == live_kinds
    # Identical layout lane by lane.  Labels differ only in the lane id:
    # the live observer shows process-global shadow serials, the trace
    # shows run-local lanes (the tracer's normalization).
    live_rows = live.rows(width=40)
    replay_rows = replayed.rows(width=40)
    assert [
        (r.txn_id, r.mode, r.promoted, r.track) for r in replay_rows
    ] == [
        (r.txn_id, r.mode, r.promoted, r.track) for r in live_rows
    ]
    assert [r.serial for r in replay_rows] == [0, 1, 2]


def test_from_trace_handles_plain_execution_lanes():
    from repro.telemetry.events import TraceEvent

    events = [
        TraceEvent(time=0.0, kind="step_complete", txn=0, lane=0, pos=1,
                   data={"page": 3, "write": False}),
        TraceEvent(time=1.0, kind="block", txn=0, lane=0, pos=1),
        TraceEvent(time=2.0, kind="txn_finish", txn=0, lane=0, pos=2),
        TraceEvent(time=2.0, kind="commit", txn=0, lane=0, pos=2),
        TraceEvent(time=2.5, kind="restart", txn=1),  # no lane: skipped
    ]
    recorder = TimelineRecorder.from_trace(events)
    rows = recorder.rows(width=24)
    assert len(rows) == 1
    assert rows[0].mode == "execution"
    assert "exec" in rows[0].label
