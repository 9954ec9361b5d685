"""Unit tests for the RTDBSystem wiring (Figure 12 model)."""

import pytest

from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import CCProtocol, Execution
from repro.protocols.serial import SerialExecution
from repro.workloads.generator import fixed_workload
from repro.txn.spec import TransactionSpec
from tests.conftest import R, W, build_system, make_class


def specs_for(programs, arrivals=None, deadlines=None):
    return fixed_workload(
        programs=programs,
        arrivals=arrivals or [0.0] * len(programs),
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=1.0,
        deadlines=deadlines,
    )


def test_commit_records_history_and_metrics():
    system = build_system(SerialExecution(), num_pages=8)
    system.load_workload(specs_for([[R(0), W(1)]]))
    system.run()
    assert system.committed_count == 1
    assert len(system.history) == 1
    committed = system.history.transactions[0]
    assert committed.reads == {0: 0, 1: 0}
    assert committed.writes == {1: 1}
    assert system.db.read(1) == (0, 1)  # payload = writer txn id
    assert system.metrics.summary().committed == 1


def test_duplicate_arrival_rejected():
    system = build_system(SerialExecution(), num_pages=8)
    spec = specs_for([[R(0)]])[0]
    system.load_workload([spec])
    system.sim.run()
    duplicate = specs_for([[R(0)]])[0]
    system.sim.schedule(0.0, system._arrive, duplicate)
    with pytest.raises(ProtocolError):
        system.sim.run()


def test_double_commit_rejected():
    system = build_system(SerialExecution(), num_pages=8)
    spec = specs_for([[R(0)]])[0]
    system.load_workload([spec])
    system.run()
    execution = Execution(spec)
    execution.pos = 1
    from repro.protocols.base import ExecutionState

    execution.state = ExecutionState.FINISHED
    with pytest.raises(ProtocolError):
        system.commit(execution)


def test_stale_read_commit_rejected():
    # A protocol that tries to commit a stale read must be stopped.
    class BrokenProtocol(CCProtocol):
        name = "broken"

        def on_arrival(self, txn):
            self._start(Execution(txn))

        def on_finished(self, execution):
            # Sneakily bump the page version before committing.
            self.system.db.install({0: 99}, writer=999)
            self._commit(execution)

    system = build_system(BrokenProtocol(), num_pages=8)
    system.load_workload(specs_for([[R(0)]]))
    with pytest.raises(InvariantViolation):
        system.run()


def test_drain_with_live_transactions_detected():
    # A protocol that silently drops a transaction must be caught at drain.
    class LosesTransactions(CCProtocol):
        name = "loses"

        def on_arrival(self, txn):
            pass  # never starts anything

        def on_finished(self, execution):  # pragma: no cover
            pass

    system = build_system(LosesTransactions(), num_pages=8)
    system.load_workload(specs_for([[R(0)]]))
    with pytest.raises(InvariantViolation):
        system.run()


def test_active_transaction_tracking():
    system = build_system(SerialExecution(), num_pages=8)
    system.load_workload(specs_for([[R(0), R(1)], [R(2)]]))
    system.sim.run(until=0.5)
    assert len(system.active_transactions) == 2
    assert system.is_active(0)
    system.run()
    assert not system.is_active(0)
    assert system.active_transactions == []


def test_protocol_cannot_bind_twice():
    protocol = SerialExecution()
    build_system(protocol, num_pages=8)
    with pytest.raises(ProtocolError):
        build_system(protocol, num_pages=8)


def test_history_recording_can_be_disabled():
    from repro.metrics.stats import MetricsCollector
    from repro.system.model import RTDBSystem
    from repro.system.resources import InfiniteResources

    system = RTDBSystem(
        protocol=SerialExecution(),
        num_pages=8,
        resources=InfiniteResources(cpu_time=1.0, io_time=0.0),
        metrics=MetricsCollector(),
        record_history=False,
    )
    system.load_workload(specs_for([[R(0)]]))
    system.run()
    assert system.history is None
    assert system.committed_count == 1
