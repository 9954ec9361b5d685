"""Unit tests for the simulator loop: clock, bounds, cancellation, re-entrancy.

The public scheduling contract of :class:`~repro.engine.array.ArraySimulator`;
its bucketed same-instant dispatch and arrival tracks are covered in
``test_array_simulator.py``.
"""

import pytest

from repro.engine.array import ArraySimulator
from repro.errors import SimulationError


def test_run_advances_clock_and_fires_in_order():
    sim = ArraySimulator()
    trace = []
    sim.schedule(2.0, lambda: trace.append(("b", sim.now)))
    sim.schedule(1.0, lambda: trace.append(("a", sim.now)))
    sim.run()
    assert trace == [("a", 1.0), ("b", 2.0)]
    assert sim.now == 2.0
    assert sim.events_fired == 2


def test_events_can_schedule_more_events():
    sim = ArraySimulator()
    trace = []

    def chain(n):
        trace.append((n, sim.now))
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert trace == [(1, 1.0), (2, 2.0), (3, 3.0)]


def test_negative_delay_rejected():
    sim = ArraySimulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected():
    sim = ArraySimulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_at_rejects_past():
    sim = ArraySimulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = ArraySimulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=3.0)
    assert fired == [1]
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 5]


def test_run_max_events_bound():
    sim = ArraySimulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert sim.pending_events == 6


def test_cancel_pending_event():
    sim = ArraySimulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []


def test_run_is_not_reentrant():
    sim = ArraySimulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_step_fires_single_event():
    sim = ArraySimulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == ["a", "b"]


def test_zero_delay_event_fires_at_now():
    sim = ArraySimulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]
