"""Unit tests for SCC base machinery: queries and the invariant checker."""

import pytest

from repro.core.scc_ks import SCCkS
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import ExecutionState, ReadRecord
from repro.workloads.generator import fixed_workload
from tests.conftest import R, W, build_system, make_class


def mid_run_protocol(until=2.5):
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=[
            [R(5), R(0), R(6), R(7)],
            [W(0), R(8), R(9), R(10)],
        ],
        arrivals=[0.5, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=32)
    system.load_workload(specs)
    system.sim.run(until=until)
    return protocol, system


def test_runtime_queries():
    protocol, system = mid_run_protocol()
    assert protocol.runtime_of(0) is not None
    assert protocol.runtime_of(99) is None
    assert {rt.txn_id for rt in protocol.runtimes()} == {0, 1}
    writer = protocol.runtime_of(1)
    readers = protocol.readers_of_writes(writer)
    assert [rt.txn_id for rt in readers] == [0]
    assert protocol.transaction_has_conflicts(writer)
    assert protocol.transaction_has_conflicts(protocol.runtime_of(0))
    system.sim.run()


def test_live_shadows_listing():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    shadows = runtime.live_shadows()
    assert runtime.optimistic in shadows
    assert len(shadows) == 2  # optimistic + one speculative
    system.sim.run()


def test_invariant_checker_passes_mid_run():
    protocol, system = mid_run_protocol()
    protocol.check_invariants()
    system.sim.run()
    protocol.check_invariants()


def test_invariant_checker_catches_wrong_mode():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    runtime.optimistic.mode = ShadowMode.SPECULATIVE
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_invariant_checker_catches_dead_optimistic():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    runtime.optimistic.state = ExecutionState.ABORTED
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_overtaking_shadow_is_legal():
    # A speculative shadow transiently ahead of the optimistic shadow is
    # permitted (it happens when a blocked shadow is promoted while a
    # sibling is mid-service); the checker must NOT flag it.
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    shadow = next(iter(runtime.speculatives.values()))
    shadow.pos = runtime.optimistic.pos + 1
    protocol.check_invariants()
    shadow.pos = min(shadow.pos, runtime.optimistic.pos)  # restore sanity
    system.sim.run()


def test_invariant_checker_catches_exposed_waiter():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    writer, shadow = next(iter(runtime.speculatives.items()))
    # Forge a read of the waited writer's page.
    page = next(iter(protocol.index.written_by(writer)))
    shadow.readset[page] = ReadRecord(position=0, version=0, time=0.0)
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_invariant_checker_catches_stale_read():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    page, record = next(iter(runtime.optimistic.readset.items()))
    runtime.optimistic.readset[page] = ReadRecord(
        position=record.position, version=record.version + 7, time=record.time
    )
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_non_shadow_execution_rejected():
    from repro.protocols.base import Execution

    protocol, system = mid_run_protocol()
    spec = protocol.runtime_of(0).spec
    with pytest.raises(ProtocolError):
        protocol.on_finished(Execution(spec))


def test_commit_of_unfinished_transaction_rejected():
    protocol, system = mid_run_protocol()
    with pytest.raises(ProtocolError):
        protocol.commit_transaction(protocol.runtime_of(0))
