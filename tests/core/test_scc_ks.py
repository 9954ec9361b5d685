"""Scenario tests for SCC-kS: budgets, LBFO, and the five rules.

These exercise the paper's Figures 4-8 situations with exact schedules
(unit step time) and white-box inspection of the shadow sets.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.scc_ks import SCCkS
from repro.core.shadow import ShadowMode
from repro.errors import ConfigurationError
from repro.protocols.base import ExecutionState
from tests.conftest import R, W, build_system, commit_time_of, run_scenario
from repro.workloads.generator import fixed_workload
from tests.conftest import make_class


def drive(protocol, programs, until, arrivals=None, num_pages=64):
    """Run a scenario up to simulated time ``until`` and return the system."""
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals or [0.0] * len(programs),
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=num_pages)
    system.load_workload(specs)
    system.sim.run(until=until)
    return system


class TestStartAndReadRules:
    def test_start_rule_creates_single_optimistic_shadow(self):
        protocol = SCCkS(k=3)
        system = drive(protocol, [[R(0), R(1)]], until=0.5)
        runtime = protocol.runtime_of(0)
        assert runtime is not None
        assert runtime.optimistic.mode is ShadowMode.OPTIMISTIC
        assert runtime.speculatives == {}
        protocol.check_invariants()
        system.sim.run()

    def test_read_rule_forks_blocked_shadow_at_conflict_point(self):
        # T1's write of page 0 is recorded at t=1; T0 (arriving at 0.5) is
        # about to read page 0 at position 1 (t=1.5): the Read Rule forks a
        # shadow off the optimistic shadow, blocked at position 1 *before*
        # the exposing read.
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8), R(9), R(10)],
            ],
            arrivals=[0.5, 0.0],
            until=1.7,
        )
        runtime = protocol.runtime_of(0)
        assert list(runtime.speculatives) == [1]
        shadow = runtime.speculatives[1]
        assert shadow.mode is ShadowMode.SPECULATIVE
        assert shadow.state is ExecutionState.BLOCKED
        assert shadow.pos == 1
        assert shadow.forked_at == 1  # forked off the optimistic shadow
        assert not shadow.has_read(0)
        assert runtime.conflicts.blocking_point(1) == 1
        protocol.check_invariants()
        system.sim.run()
        assert check_serializable(system.history)

    def test_in_flight_write_detected_at_read_completion(self):
        # Synchronized arrivals: the write of page 0 is recorded at t=1
        # while T0's read of page 0 is already in flight (it passed its
        # before_step check at t=1 first).  The completion-time half of
        # the Read Rule must still record the conflict and fork a catch-up
        # shadow, since no donor precedes the exposing read.
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8), R(9), R(10)],
            ],
            until=2.5,
        )
        runtime = protocol.runtime_of(0)
        assert list(runtime.speculatives) == [1]
        assert runtime.speculatives[1].forked_at == 0  # from scratch
        assert runtime.conflicts.blocking_point(1) == 1
        system.sim.run()
        assert check_serializable(system.history)
        assert system.metrics.restarts == 0

    def test_budget_k1_never_speculates(self):
        protocol = SCCkS(k=1)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8), R(9), R(10)],
            ],
            arrivals=[0.5, 0.0],
            until=1.7,
        )
        runtime = protocol.runtime_of(0)
        assert runtime.speculatives == {}
        assert len(runtime.conflicts) == 1  # conflict known, not covered
        system.sim.run()
        # Without a shadow the materialized conflict forces a full restart
        # (OCC-BC behaviour): T1 commits at 4, T0 reruns 4 steps -> 8.
        assert system.metrics.restarts == 1
        assert commit_time_of(system, 0) == pytest.approx(8.0)


class TestWriteRule:
    def test_write_rule_forks_catch_up_from_scratch(self):
        # T0 read page 0 at position 1 before T1 wrote it (write-after-read,
        # the paper's Figure 4 shape): no donor exists at/before position 1
        # (the optimistic shadow is past it), so a from-scratch catch-up
        # shadow is created; it replays position 0 then blocks at 1.
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7), R(8)],
                [R(9), R(10), W(0), R(11), R(12)],
            ],
            until=3.2,
        )
        runtime = protocol.runtime_of(0)
        shadow = runtime.speculatives[1]
        assert shadow.forked_at == 0  # from scratch
        system.sim.run(until=4.5)
        # By t=4.2 the catch-up shadow replayed step 0 and blocked at 1.
        assert shadow.state is ExecutionState.BLOCKED
        assert shadow.pos == 1
        protocol.check_invariants()
        system.sim.run()
        assert check_serializable(system.history)

    def test_write_rule_forks_off_earlier_blocked_shadow(self):
        # Figure 4: a new conflict at position 2 can fork off the shadow
        # blocked at position 1 (instead of re-executing from scratch).
        protocol = SCCkS(k=4)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(1), R(6), R(7)],  # T0 reads pages 0 and 1
                [W(0), R(8), R(9), R(10), R(11)],  # writes 0 immediately
                [R(12), R(13), R(14), W(1), R(15)],  # writes 1 at t=4
            ],
            until=4.2,
        )
        runtime = protocol.runtime_of(0)
        early = runtime.speculatives[1]  # blocked at position 1
        late = runtime.speculatives[2]  # conflict on page 1 at position 2
        assert early.pos == 1
        # The late shadow forked off the early one (position 1), not from
        # scratch (position 0) and not off the exposed optimistic shadow.
        assert late.forked_at == 1
        protocol.check_invariants()
        system.sim.run()
        assert check_serializable(system.history)

    def test_figure5_same_pair_earlier_conflict_replaces_shadow(self):
        # T1 writes page 2 (conflict at T0's position 2), then writes page
        # 0 (position 0): the old shadow read page 0, so it is invalid and
        # must be replaced by one blocked at position 0 (paper Figure 5).
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(0), R(1), R(2), R(3), R(4)],
                [R(8), W(2), R(9), W(0), R(10)],
            ],
            arrivals=[0.5, 0.0],
            until=2.8,
        )
        runtime = protocol.runtime_of(0)
        first_shadow = runtime.speculatives[1]
        assert first_shadow.pos <= 2
        assert first_shadow.has_read(0)  # exposed to T1's *later* write
        system.sim.run(until=4.2)  # T1's W(0) lands at t=4
        replacement = protocol.runtime_of(0).speculatives[1]
        assert replacement is not first_shadow
        assert first_shadow.state is ExecutionState.ABORTED
        assert runtime.conflicts.blocking_point(1) == 0
        system.sim.run()
        assert check_serializable(system.history)


class TestLBFOReplacement:
    def test_figure6_new_earliest_conflict_evicts_latest_blocked(self):
        # Budget of one speculative shadow (k=2).  A conflict at position 2
        # is covered first; a new conflict at position 0 (different writer)
        # must take the slot (LBFO: the latest-blocked shadow is dropped).
        protocol = SCCkS(k=2)
        system = drive(
            protocol,
            [
                [R(0), R(1), R(2), R(3), R(4)],
                [W(2), R(9), R(10), R(11), R(12)],  # conflict at pos 2 (t=1)
                [R(13), R(14), W(0), R(15), R(16)],  # conflict at pos 0 (t=3)
            ],
            until=3.5,
        )
        runtime = protocol.runtime_of(0)
        assert list(runtime.speculatives) == [2]  # writer T2 covered now
        assert runtime.speculatives[2].pos == 0
        assert len(runtime.conflicts) == 2
        protocol.check_invariants()
        system.sim.run()
        assert check_serializable(system.history)


class TestCommitRule:
    def test_case1_waiting_shadow_promoted(self):
        # The shadow speculating on the committer is promoted and resumes
        # from its blocking point (Figure 7).  T1 commits at t=3 having
        # written page 0; T0's optimistic shadow read page 0 at t=2.5 and
        # dies; the waiting shadow (blocked at position 1 since t=1.5)
        # resumes: reads at 4, 5, 6 -> commit 6 (restart would be 7).
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8), R(9)],
            ],
            arrivals=[0.5, 0.0],
            until=10.0,
        )
        system.sim.run()
        assert commit_time_of(system, 1) == pytest.approx(3.0)
        assert commit_time_of(system, 0) == pytest.approx(6.0)
        assert system.metrics.restarts == 0

    def test_committer_without_exposure_leaves_reader_untouched(self):
        # T1 commits while T0's read of the conflict page is still in
        # flight: T0's optimistic shadow never read the stale version, so
        # it survives and simply reads the freshly committed value; the
        # now-pointless waiting shadow is discarded.
        protocol = SCCkS(k=3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8)],
            ],
            arrivals=[0.5, 0.0],
            until=10.0,
        )
        system.sim.run()
        assert commit_time_of(system, 1) == pytest.approx(2.0)
        # T0 proceeds uninterrupted: arrival 0.5 + 4 steps = 4.5.
        assert commit_time_of(system, 0) == pytest.approx(4.5)
        assert system.metrics.restarts == 0
        history = {t.txn_id: t for t in system.history}
        assert history[0].reads[0] == 1  # saw T1's committed write

    def test_case2_latest_blocked_survivor_promoted(self):
        # Figure 8: the materialized conflict was not covered (budget), so
        # the latest-blocked surviving shadow is adopted even though it
        # speculated on a different committer.
        protocol = SCCkS(k=2)
        system = drive(
            protocol,
            [
                # T0 reads page 0 (pos 1, covered) and page 1 (pos 3, not
                # covered: budget is one shadow, LBFO keeps pos 1).
                [R(5), R(0), R(6), R(1), R(7)],
                [W(0), R(8), R(9), R(10), R(11), R(12), R(13)],
                [R(14), R(15), W(1), R(16)],  # commits at t=4
            ],
            until=3.5,
        )
        runtime = protocol.runtime_of(0)
        assert list(runtime.speculatives) == [1]
        shadow = runtime.speculatives[1]
        assert shadow.pos == 1
        system.sim.run()
        # T2 commits at 4.  T0's optimistic read page 1 at pos 3 -> dead.
        # Survivor: the T1-waiting shadow at pos 1 is promoted (suboptimal
        # but best available); it resumes reading page 0... which T1 still
        # has uncommitted writes for, so a fresh shadow re-blocks there.
        assert check_serializable(system.history)
        assert len(system.history) == 3
        assert system.metrics.restarts == 0

    def test_exposed_speculative_shadows_killed_with_optimistic(self):
        # Figure 7's T3-style shadow: a speculative shadow that read the
        # committer's page (blocked later for a different writer) dies too.
        protocol = SCCkS(k=4)
        system = drive(
            protocol,
            [
                [R(0), R(1), R(5), R(6)],
                [R(9), W(0), R(10), R(11), R(12)],  # conflict at pos 0
                [R(13), R(14), W(1), R(15), R(16)],  # conflict at pos 1
            ],
            arrivals=[1.0, 0.0, 0.0],
            until=4.5,
        )
        runtime = protocol.runtime_of(0)
        assert set(runtime.speculatives) == {1, 2}
        # The shadow waiting on T2 forked off the T1-waiting shadow and
        # replayed the read of page 0 (exposing itself to T1, which its
        # speculated order permits) before blocking at position 1.
        shadow_for_t2 = runtime.speculatives[2]
        assert shadow_for_t2.has_read(0)
        system.sim.run(until=5.2)  # T1 commits at t=5
        assert shadow_for_t2.state is ExecutionState.ABORTED
        system.sim.run()
        assert check_serializable(system.history)
        assert system.metrics.restarts == 0

    def test_no_survivor_restarts_from_scratch(self):
        protocol = SCCkS(k=1)  # no speculation at all
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8)],
            ],
            until=10.0,
        )
        system.sim.run()
        assert system.metrics.restarts == 1
        # Full restart at t=2: 4 steps -> commit 6 (vs 5 with a shadow).
        assert commit_time_of(system, 0) == pytest.approx(6.0)


class TestConfiguration:
    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            SCCkS(k=0)

    def test_per_transaction_budget(self):
        protocol = SCCkS(k=None, k_for=lambda spec: 1 if spec.txn_id == 0 else 3)
        system = drive(
            protocol,
            [
                [R(5), R(0), R(6), R(7)],
                [R(5), R(0), R(6), R(7)],
                [W(0), R(8), R(9), R(10), R(11)],
            ],
            arrivals=[0.5, 0.5, 0.0],
            until=1.7,
        )
        # Identical transactions, different budgets: T0 (k=1) covers no
        # conflicts, T1 (k=3) shadows its conflict with the writer T2.
        assert protocol.runtime_of(0).speculatives == {}
        assert list(protocol.runtime_of(1).speculatives) == [2]
        system.sim.run()

    def test_name_reflects_k(self):
        assert SCCkS(k=2).name == "SCC-2S"
        assert SCCkS(k=5).name == "SCC-5S"
        assert SCCkS(k=None).name == "SCC-kS"

    def test_more_shadows_never_hurt_timeliness(self):
        programs = [
            [R(5), R(0), R(6), R(1), R(7)],
            [W(0), R(8), R(9), R(10), R(11), R(12)],
            [R(13), R(14), W(1), R(15), R(16), R(17)],
        ]
        times = {}
        for k in (1, 2, 3):
            system = run_scenario(SCCkS(k=k), programs=[list(p) for p in programs])
            times[k] = commit_time_of(system, 0)
        assert times[1] >= times[2] >= times[3]
