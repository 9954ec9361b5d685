"""Unit tests for resource managers."""

import pytest

from repro.errors import ConfigurationError
from repro.protocols.serial import SerialExecution
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.system.resources import FiniteResources, InfiniteResources
from tests.conftest import R, W, build_system, commit_time_of, make_class
from repro.workloads.generator import fixed_workload


def run_with(resources, programs, arrivals=None):
    system = build_system(
        OCCBroadcastCommit(), num_pages=64, resources=resources
    )
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals or [0.0] * len(programs),
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=resources.step_service_time,
    )
    system.load_workload(specs)
    system.run()
    return system


def test_infinite_resources_no_queueing():
    resources = InfiniteResources(cpu_time=1.0, io_time=0.0)
    system = run_with(resources, [[R(0), R(1)], [R(2), R(3)], [R(4), R(5)]])
    for txn_id in range(3):
        assert commit_time_of(system, txn_id) == pytest.approx(2.0)


def test_finite_single_server_serializes_service():
    resources = FiniteResources(cpu_time=1.0, io_time=0.0, num_servers=1)
    system = run_with(resources, [[R(0), R(1)], [R(2), R(3)]])
    # Four page accesses through one server: last completes at t=4.
    times = sorted(
        commit_time_of(system, txn_id) for txn_id in range(2)
    )
    assert times[-1] == pytest.approx(4.0)
    assert resources.total_queued > 0


def test_finite_many_servers_behaves_like_infinite():
    finite = FiniteResources(cpu_time=1.0, io_time=0.0, num_servers=16)
    system = run_with(finite, [[R(0), R(1)], [R(2), R(3)], [R(4), R(5)]])
    for txn_id in range(3):
        assert commit_time_of(system, txn_id) == pytest.approx(2.0)
    assert finite.total_queued == 0


def test_finite_priority_queue_serves_urgent_first():
    # One server, three single-step transactions arriving together: the
    # one with the earliest deadline must be served first.
    resources = FiniteResources(cpu_time=1.0, io_time=0.0, num_servers=1)
    system = build_system(SerialExecution(), num_pages=8, resources=resources)
    specs = fixed_workload(
        programs=[[R(0)], [R(1)], [R(2)]],
        arrivals=[0.0, 0.0, 0.0],
        txn_class=make_class(num_steps=1),
        step_duration=1.0,
        deadlines=[30.0, 10.0, 20.0],
    )
    # SerialExecution runs txns one at a time already; use OCC instead for
    # genuine queue competition.
    system = build_system(OCCBroadcastCommit(), num_pages=8, resources=FiniteResources(1.0, 0.0, 1))
    system.load_workload(specs)
    system.run()
    # T0's request found the server free (service is non-preemptive), so
    # it completes first; the *queued* requests are served in EDF order:
    # T1 (deadline 10) before T2 (deadline 20).
    assert commit_time_of(system, 0) == pytest.approx(1.0)
    assert commit_time_of(system, 1) == pytest.approx(2.0)
    assert commit_time_of(system, 2) == pytest.approx(3.0)


def test_dead_waiters_are_skipped():
    # An aborted execution queued behind a busy server must not consume
    # service.  2PL aborts via priority abort while requests are queued.
    from repro.protocols.twopl_pa import TwoPhaseLockingPA

    resources = FiniteResources(cpu_time=1.0, io_time=0.0, num_servers=1)
    system = build_system(TwoPhaseLockingPA(), num_pages=8, resources=resources)
    specs = fixed_workload(
        programs=[[W(0), R(1)], [W(0), R(2)]],
        arrivals=[0.0, 0.1],
        txn_class=make_class(num_steps=2),
        step_duration=1.0,
        deadlines=[50.0, 5.0],
    )
    system.load_workload(specs)
    system.run()
    assert len(system.history.transactions) == 2


def test_utilization_accounting():
    resources = FiniteResources(cpu_time=0.5, io_time=0.5, num_servers=2)
    run_with(resources, [[R(0), R(1)], [R(2), R(3)]])
    assert resources.total_busy_time == pytest.approx(4.0)
    assert resources.busy_servers == 0  # all released at drain


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        InfiniteResources(cpu_time=0.0, io_time=0.0)
    with pytest.raises(ConfigurationError):
        InfiniteResources(cpu_time=-1.0, io_time=2.0)
    with pytest.raises(ConfigurationError):
        FiniteResources(cpu_time=1.0, io_time=0.0, num_servers=0)


def test_unbound_resource_manager_rejected():
    resources = InfiniteResources(cpu_time=1.0, io_time=0.0)
    with pytest.raises(ConfigurationError):
        resources.request(None, lambda: None)