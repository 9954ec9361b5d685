"""Unit tests for the deferral scaffolding (termination policies)."""

import pytest

from repro.core.deferral import DeferredTermination, ImmediateCommit
from repro.core.scc_ks import SCCkS
from repro.errors import ConfigurationError, ProtocolError
from tests.conftest import R, W, build_system, commit_time_of
from repro.workloads.generator import fixed_workload
from tests.conftest import make_class


class NeverCommit(DeferredTermination):
    """Defers forever (until the max_deferral valve or conflict-free)."""

    def should_commit(self, runtime, now):
        return False


class AlwaysCommit(DeferredTermination):
    def should_commit(self, runtime, now):
        return True


def run_with_policy(policy, programs, arrivals=None, deadlines=None):
    protocol = SCCkS(k=2, termination=policy)
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals or [0.0] * len(programs),
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=1.0,
        deadlines=deadlines,
    )
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    system.run()
    return system


def test_immediate_commit_at_finish():
    protocol = SCCkS(k=2, termination=ImmediateCommit())
    specs = fixed_workload(
        programs=[[R(0), R(1)]],
        arrivals=[0.0],
        txn_class=make_class(num_steps=2),
        step_duration=1.0,
    )
    system = build_system(protocol)
    system.load_workload(specs)
    system.run()
    assert commit_time_of(system, 0) == pytest.approx(2.0)


def test_conflict_free_transactions_commit_despite_policy():
    # NeverCommit still lets conflict-free transactions through (paper:
    # "If T_u does not conflict ... commit it").
    system = run_with_policy(
        NeverCommit(period=0.5, evaluate_eagerly=True),
        programs=[[R(0), R(1)], [R(2), R(3)]],
    )
    assert commit_time_of(system, 0) == pytest.approx(2.0)
    assert commit_time_of(system, 1) == pytest.approx(2.0)


def test_always_commit_behaves_like_immediate_on_ticks():
    system = run_with_policy(
        AlwaysCommit(period=0.5, evaluate_eagerly=True),
        programs=[[W(0), R(1), R(2)], [R(3), R(0), R(4), R(5)]],
    )
    assert len(system.history) == 2


class CommitWhenPastTime(DeferredTermination):
    """Defers until the clock reaches a threshold (test stub)."""

    def __init__(self, threshold, **kwargs):
        super().__init__(**kwargs)
        self.threshold = threshold

    def should_commit(self, runtime, now):
        return now >= self.threshold


def test_deferral_resolves_when_policy_allows():
    # T0 finishes at 2 but is deferred until the policy's threshold (3.5,
    # evaluated on the 0.5 tick grid); the conflicting reader T1 finishes
    # at 4 having read the pre-T0 version of page 0 (serialized first).
    system = run_with_policy(
        CommitWhenPastTime(3.5, period=0.5, evaluate_eagerly=True),
        programs=[[R(8), W(0)], [R(0), R(9), R(10), R(11)]],
    )
    assert commit_time_of(system, 0) == pytest.approx(3.5)
    # T1's exposed optimistic died at 3.5; its blocked shadow (position 0)
    # resumed and re-ran all four steps: commit at 7.5, no scratch restart.
    assert commit_time_of(system, 1) == pytest.approx(7.5)
    assert system.metrics.restarts == 0
    assert system.metrics.summary().deferred_commits >= 1


def test_max_deferral_valve_forces_commit():
    system = run_with_policy(
        NeverCommit(period=0.5, evaluate_eagerly=True, max_deferral=1.0),
        programs=[[R(8), W(0)], [R(0), R(9), R(10), R(11), R(12), R(13)]],
    )
    # T0 finished at 2; the valve forces its commit at ~3.0 even though
    # the conflicting T1 is still executing (T1 then falls back/restarts).
    assert commit_time_of(system, 0) == pytest.approx(3.0)
    assert len(system.history) == 2


def test_deferred_metric_counted_once_per_episode():
    # Deferred across several ticks, still one deferral episode.
    system = run_with_policy(
        CommitWhenPastTime(4.0, period=0.5, evaluate_eagerly=True),
        programs=[[R(8), W(0)], [R(0), R(9), R(10), R(11)]],
    )
    assert system.metrics.summary().deferred_commits == 1


def test_tick_period_validated():
    with pytest.raises(ConfigurationError):
        NeverCommit(period=0.0, evaluate_eagerly=True)
    with pytest.raises(ConfigurationError):
        NeverCommit(period=1.0, evaluate_eagerly=True, max_deferral=-1.0)


def test_policy_cannot_bind_twice():
    policy = AlwaysCommit(period=1.0, evaluate_eagerly=True)
    SCCkS(k=2, termination=policy)
    with pytest.raises(ProtocolError):
        SCCkS(k=2, termination=policy)


def test_unbound_policy_rejects_use():
    policy = AlwaysCommit(period=1.0, evaluate_eagerly=True)
    with pytest.raises(ProtocolError):
        _ = policy.protocol
