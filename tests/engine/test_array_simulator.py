"""Behavioural tests for the simulation engine.

The contract under test: :class:`~repro.engine.array.ArraySimulator`
fires callbacks in ascending ``(time, priority, sequence)`` order, a
total order because sequence numbers are unique, for every scheduling
pattern the library uses — including bulk arrival tracks, zero-delay
events scheduled *during* a same-instant drain, and mid-bucket
``max_events`` suspension.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.array import ArraySimulator
from repro.errors import SimulationError


def test_orders_by_time_then_priority_then_sequence():
    sim = ArraySimulator()
    trace = []
    sim.schedule(2.0, lambda: trace.append("late"))
    sim.schedule(1.0, lambda: trace.append("b"), priority=1)
    sim.schedule(1.0, lambda: trace.append("a"), priority=0)
    sim.schedule(1.0, lambda: trace.append("c"), priority=1)  # seq breaks tie
    sim.run()
    assert trace == ["a", "b", "c", "late"]
    assert sim.now == 2.0
    assert sim.events_fired == 4


def test_rejects_past_and_nonfinite_schedules():
    sim = ArraySimulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_zero_delay_during_drain_interleaves_by_priority():
    # The twopl_pa pattern: a callback firing at t schedules more work at
    # the same t; it must still interleave with the bucket remainder by
    # (priority, sequence), not run at the end or be lost.
    sim = ArraySimulator()
    trace = []

    def first():
        trace.append("first")
        sim.schedule(0.0, lambda: trace.append("urgent"), priority=0)
        sim.schedule(0.0, lambda: trace.append("lazy"), priority=9)

    sim.schedule(1.0, first, priority=0)
    sim.schedule(1.0, lambda: trace.append("second"), priority=5)
    sim.run()
    assert trace == ["first", "urgent", "second", "lazy"]


def test_cancel_prevents_firing_and_is_idempotent():
    sim = ArraySimulator()
    trace = []
    handle = sim.schedule(1.0, lambda: trace.append("cancelled"))
    sim.schedule(1.0, lambda: trace.append("kept"))
    sim.cancel(handle)
    sim.cancel(handle)  # double-cancel is a no-op
    assert sim.pending_events == 1
    sim.run()
    assert trace == ["kept"]
    assert sim.events_fired == 1


def test_run_until_stops_clock_and_preserves_future_events():
    sim = ArraySimulator()
    trace = []
    sim.schedule(1.0, lambda: trace.append(1.0))
    sim.schedule(3.0, lambda: trace.append(3.0))
    sim.run(until=2.0)
    assert trace == [1.0]
    assert sim.now == 2.0
    sim.run()
    assert trace == [1.0, 3.0]


def test_max_events_suspends_mid_bucket_and_resumes_in_order():
    sim = ArraySimulator()
    trace = []
    for name in "abcd":
        sim.schedule(1.0, trace.append, name)
    sim.run(max_events=2)
    assert trace == ["a", "b"]
    assert sim.pending_events == 2
    sim.run()
    assert trace == ["a", "b", "c", "d"]


def test_step_fires_exactly_one_event():
    sim = ArraySimulator()
    trace = []
    sim.schedule(1.0, trace.append, "x")
    sim.schedule(2.0, trace.append, "y")
    assert sim.step() and trace == ["x"]
    assert sim.step() and trace == ["x", "y"]
    assert not sim.step()


def test_run_is_not_reentrant():
    sim = ArraySimulator()

    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()


# ----------------------------------------------------------------------
# schedule_batch (arrival tracks)
# ----------------------------------------------------------------------


def test_batch_interleaves_with_individual_events_by_sequence():
    # An individually scheduled event at the same (time, priority) fires
    # before batch entries claimed later — sequence order is global.
    sim = ArraySimulator()
    trace = []
    sim.schedule_at(2.0, trace.append, "individual")
    sim.schedule_batch(
        [1.0, 2.0, 3.0], trace.append, [("b1",), ("b2",), ("b3",)]
    )
    sim.run()
    assert trace == ["b1", "individual", "b2", "b3"]


def test_batch_priority_beats_sequence_at_same_instant():
    sim = ArraySimulator()
    trace = []
    sim.schedule_batch([1.0], trace.append, [("arrival",)], priority=10)
    sim.schedule_at(1.0, trace.append, "commit", priority=0)
    sim.run()
    assert trace == ["commit", "arrival"]


def test_batch_with_duplicate_times_fires_in_payload_order():
    sim = ArraySimulator()
    trace = []
    count = sim.schedule_batch(
        [1.0, 1.0, 1.0], trace.append, [("x",), ("y",), ("z",)]
    )
    assert count == 3
    assert sim.pending_events == 3
    sim.run()
    assert trace == ["x", "y", "z"]


def test_batch_validation_errors():
    sim = ArraySimulator()
    with pytest.raises(SimulationError, match="payloads"):
        sim.schedule_batch([1.0, 2.0], print, [("a",)])
    with pytest.raises(SimulationError, match="non-decreasing"):
        sim.schedule_batch([2.0, 1.0], print, [("a",), ("b",)])
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule_batch([float("inf")], print, [("a",)])
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="precedes"):
        sim.schedule_batch([0.5], print, [("a",)])
    assert sim.schedule_batch([], print, []) == 0


def test_batch_mid_run_rejected():
    sim = ArraySimulator()

    def load_more():
        sim.schedule_batch([5.0], print, [("late",)])

    sim.schedule(1.0, load_more)
    with pytest.raises(SimulationError, match="mid-run"):
        sim.run()


def test_two_tracks_merge_by_time():
    sim = ArraySimulator()
    trace = []
    sim.schedule_batch([1.0, 3.0], trace.append, [("a1",), ("a2",)])
    sim.schedule_batch([2.0, 4.0], trace.append, [("b1",), ("b2",)])
    sim.run()
    assert trace == ["a1", "b1", "a2", "b2"]


# ----------------------------------------------------------------------
# firing order against a plain sort by (time, priority, sequence)
# ----------------------------------------------------------------------

_schedule_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=25,
)


def expected_order(ops):
    """Indices sorted by ``(time, priority, sequence)``.

    Every op is scheduled up front from ``now == 0`` in index order, so
    its sequence number is its index and its firing time its delay.
    """
    return sorted(
        range(len(ops)),
        key=lambda i: (round(ops[i][0], 1), ops[i][1], i),
    )


def schedule_all(sim, ops, trace):
    for index, (delay, priority) in enumerate(ops):
        sim.schedule(round(delay, 1), trace.append, index, priority=priority)


@settings(max_examples=60, deadline=None)
@given(_schedule_ops)
def test_firing_order_is_time_priority_sequence(ops):
    # Low-resolution times force heavy same-instant collisions, the case
    # where bucketed dispatch could diverge from the total order.
    sim = ArraySimulator()
    trace = []
    schedule_all(sim, ops, trace)
    sim.run()
    assert trace == expected_order(ops)


@settings(max_examples=30, deadline=None)
@given(_schedule_ops, st.integers(min_value=1, max_value=8))
def test_chunked_run_fires_in_time_priority_sequence_order(ops, chunk):
    # Repeated bounded runs (the run_scenario idiom) must fire the same
    # order as one unbounded run, including mid-bucket suspensions.
    sim = ArraySimulator()
    trace = []
    schedule_all(sim, ops, trace)
    while sim.pending_events:
        sim.run(max_events=chunk)
    assert trace == expected_order(ops)
