"""Tests for SCC-CB (conflict-based SCC: unlimited shadow budget)."""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.scc_cb import SCCCB
from repro.core.scc_ks import SCCkS
from repro.workloads.generator import fixed_workload
from tests.conftest import R, W, build_system, commit_time_of, make_class


def run(protocol, programs, arrivals=None, until=None):
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals or [0.0] * len(programs),
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    if until is None:
        system.run()
    else:
        system.sim.run(until=until)
    return system


def test_one_shadow_per_conflicting_transaction():
    protocol = SCCCB()
    system = run(
        protocol,
        programs=[
            [R(0), R(1), R(2), R(3), R(4)],
            [W(0), R(10), R(11), R(12), R(13)],
            [W(1), R(14), R(15), R(16), R(17)],
            [W(2), R(18), R(19), R(20), R(21)],
        ],
        arrivals=[0.5, 0.0, 0.0, 0.0],
        until=3.8,
    )
    runtime = protocol.runtime_of(0)
    # Conflicts with three writers -> three speculative shadows (no
    # budget cap), blocked at positions 0, 1, 2 respectively.
    assert set(runtime.speculatives) == {1, 2, 3}
    positions = sorted(s.pos for s in runtime.speculatives.values())
    assert positions == [0, 1, 2]
    protocol.check_invariants()
    system.sim.run()
    assert check_serializable(system.history)


def test_cb_commit_time_no_worse_than_small_k():
    programs = [
        [R(5), R(0), R(6), R(1), R(7)],
        [W(0), R(8), R(9), R(10), R(11), R(12)],
        [R(13), R(14), W(1), R(15), R(16), R(17)],
    ]
    cb = run(SCCCB(), [list(p) for p in programs])
    k2 = run(SCCkS(k=2), [list(p) for p in programs])
    assert commit_time_of(cb, 0) <= commit_time_of(k2, 0)
    assert cb.metrics.restarts == 0


def test_name():
    assert SCCCB().name == "SCC-CB"
