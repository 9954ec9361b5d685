"""Tests for §3.2's *extended* Read and Write Rules under deferral.

While a finished shadow awaits commitment: (1) other transactions reading
its writes still register conflicts against it (extended Read Rule), and
(2) a new writer conflicting with the *finished* transaction still gets a
speculative shadow created on the finished transaction's behalf, so that
losing the race costs a resume, not a restart (extended Write Rule).
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.deferral import DeferredTermination
from repro.core.scc_ks import SCCkS
from repro.protocols.base import ExecutionState
from repro.workloads.generator import fixed_workload
from tests.conftest import R, W, build_system, commit_time_of, make_class


class CommitAfter(DeferredTermination):
    """Defers every finished shadow until a fixed time (test stub)."""

    def __init__(self, threshold: float):
        super().__init__(period=0.5, evaluate_eagerly=True)
        self.threshold = threshold

    def should_commit(self, runtime, now):
        return now >= self.threshold


def test_extended_write_rule_creates_shadow_for_finished_txn():
    # T0 = [W(5), R(1), R(0)] finishes at t=3 and stays deferred: T2 read
    # T0's written page 5 at t=1, an outgoing conflict that keeps T0 in
    # the pool until the threshold.  T1 writes page 0 at t=4 — a
    # write-after-read conflict against the *finished* T0.  The extended
    # Write Rule must fork a speculative shadow for T0 anyway.
    protocol = SCCkS(k=2, termination=CommitAfter(9.0))
    specs = fixed_workload(
        programs=[
            [W(5), R(1), R(0)],
            [R(8), R(9), R(7), W(0), R(10), R(11)],
            [R(5), R(20), R(21), R(22), R(23), R(24), R(25)],
        ],
        arrivals=[0.0, 0.0, 0.0],
        txn_class=make_class(num_steps=7),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=32)
    system.load_workload(specs)
    system.sim.run(until=4.5)
    runtime = protocol.runtime_of(0)
    assert runtime.finished_waiting
    # The extended Write Rule forked a shadow for the *finished* T0,
    # blocked before its read of page 0.
    assert list(runtime.speculatives) == [1]
    shadow = runtime.speculatives[1]
    assert shadow.alive
    assert not shadow.has_read(0)
    system.sim.run()
    # All transactions eventually commit (the stub policy releases at 9;
    # pool evaluation is serialization-consistent, readers first), with no
    # restart anywhere.
    assert len(system.history) == 3
    assert system.metrics.restarts == 0
    assert check_serializable(system.history)


def test_extended_read_rule_conflicts_against_finished_writer():
    # T0 = [R(8), W(0)] finishes at t=2 with an uncommitted write of page
    # 0 and is kept deferred by the long reader T2 (which read page 0 at
    # t=1).  T1 starts at t=2.5 and reads page 0 at t=3.5: the (extended)
    # Read Rule must record the conflict against the finished-but-
    # uncommitted T0 and fork a blocked shadow for T1.
    protocol = SCCkS(k=2, termination=CommitAfter(6.0))
    specs = fixed_workload(
        programs=[
            [R(8), W(0)],
            [R(0), R(9), R(10)],
            [R(0), R(20), R(21), R(22), R(23), R(24)],
        ],
        arrivals=[0.0, 2.5, 0.0],
        txn_class=make_class(num_steps=6),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=32)
    system.load_workload(specs)
    system.sim.run(until=4.0)
    assert protocol.runtime_of(0).finished_waiting
    reader = protocol.runtime_of(1)
    assert 0 in reader.conflicts
    assert list(reader.speculatives) == [0]
    assert reader.speculatives[0].state in (
        ExecutionState.BLOCKED,
        ExecutionState.RUNNING,
    )
    system.sim.run()
    # T0 commits at 6 (threshold); T1's exposed optimistic is replaced by
    # the blocked shadow which resumes with the committed value.
    assert commit_time_of(system, 0) == pytest.approx(6.0)
    assert system.metrics.restarts == 0
    assert check_serializable(system.history)


def test_deferred_commit_still_broadcasts_exposure():
    # When the deferred shadow finally commits, every exposed shadow in
    # the system dies exactly as with an immediate commit.
    protocol = SCCkS(k=1, termination=CommitAfter(4.0))  # no speculation
    specs = fixed_workload(
        programs=[
            [R(8), W(0)],
            [R(0), R(9), R(10), R(11), R(12), R(13)],
        ],
        arrivals=[0.0, 0.0],
        txn_class=make_class(num_steps=6),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=32)
    system.load_workload(specs)
    system.run()
    assert commit_time_of(system, 0) == pytest.approx(4.0)
    # k=1: no shadow to adopt; the reader restarts at t=4 and reruns all 6
    # steps.
    assert system.metrics.restarts == 1
    assert commit_time_of(system, 1) == pytest.approx(10.0)
    assert check_serializable(system.history)
