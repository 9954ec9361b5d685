"""Executable versions of the paper's illustrative figures (E8 in DESIGN.md).

Each test reconstructs the schedule a figure depicts and asserts the
qualitative claim the paper makes with it, across the protocols involved.
Unit step time keeps every commit instant exact.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.scc_2s import SCC2S
from repro.core.scc_ks import SCCkS
from repro.core.scc_vw import SCCVW
from repro.protocols.occ import BasicOCC
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.txn.spec import TransactionSpec
from tests.conftest import R, W, build_system, commit_time_of, make_class, run_scenario

# The recurring two-transaction conflict: T1 updates x early and commits
# at t=3; T2 reads a clean page, then x, then keeps going.
T1_PROGRAM = [W(0), R(1), R(2)]
T2_PROGRAM = [R(3), R(0), R(4), R(5)]


def figure1_2_programs():
    return [list(T1_PROGRAM), list(T2_PROGRAM)]


def test_figure1a_basic_occ_restarts_at_validation():
    # Basic OCC discovers the materialized conflict only when T2
    # validates (t=4), then re-runs everything: commit at 8.
    system = run_scenario(BasicOCC(), programs=figure1_2_programs())
    assert commit_time_of(system, 0) == pytest.approx(3.0)
    assert commit_time_of(system, 1) == pytest.approx(8.0)
    assert system.metrics.restarts == 1


def test_figure1b_occ_bc_restarts_at_commit():
    # OCC-BC notifies T2 at T1's commit (t=3): restart runs 4 steps,
    # commit at 7 — one step earlier than basic OCC.
    system = run_scenario(OCCBroadcastCommit(), programs=figure1_2_programs())
    assert commit_time_of(system, 0) == pytest.approx(3.0)
    assert commit_time_of(system, 1) == pytest.approx(7.0)
    assert system.metrics.restarts == 1


def test_figure2b_scc_adopts_shadow_instead_of_restarting():
    # SCC-2S forked a shadow blocked before the read of x (position 1):
    # adoption resumes there, commit at 6 — beating both OCC variants.
    system = run_scenario(SCC2S(), programs=figure1_2_programs())
    assert commit_time_of(system, 0) == pytest.approx(3.0)
    assert commit_time_of(system, 1) == pytest.approx(6.0)
    assert system.metrics.restarts == 0


def test_figure_1_2_protocol_ordering():
    # The paper's qualitative chain: SCC < OCC-BC < OCC for T2's finish.
    times = {}
    for name, protocol in (
        ("occ", BasicOCC()),
        ("occ-bc", OCCBroadcastCommit()),
        ("scc", SCC2S()),
    ):
        system = run_scenario(protocol, programs=figure1_2_programs())
        times[name] = commit_time_of(system, 1)
    assert times["scc"] < times["occ-bc"] < times["occ"]


def test_figure3_shadow_set_for_three_pairwise_conflicts():
    # Three pairwise-conflicting transactions: under conflict-based
    # speculation T3 keeps one optimistic plus one shadow per conflicting
    # transaction (the figure's T3', T3^1, T3^2 — three total under
    # SCC-CB vs five orders under SCC-OB, checked analytically elsewhere).
    from repro.core.scc_cb import SCCCB
    from repro.workloads.generator import fixed_workload

    protocol = SCCCB()
    # T3 reads x (written by T1) and y (written by T2).
    specs = fixed_workload(
        programs=[
            [W(10), R(20), R(21), R(22)],  # T1 writes x
            [W(11), R(23), R(24), R(25)],  # T2 writes y
            [R(10), R(11), R(26), R(27)],  # T3 reads x then y
        ],
        arrivals=[0.0, 0.0, 1.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    system.sim.run(until=3.5)
    runtime = protocol.runtime_of(2)
    assert len(runtime.speculatives) == 2
    assert runtime.optimistic.alive
    system.sim.run()
    assert check_serializable(system.history)


def test_figure6_lbfo_replacement_keeps_earliest_blocking_point():
    # Covered in detail by tests/core/test_scc_ks.py; here the end-to-end
    # claim: with k=2 the shadow budget follows the earliest conflict.
    protocol = SCCkS(k=2)
    system = run_scenario(
        protocol,
        programs=[
            [R(0), R(1), R(2), R(3), R(4)],
            [W(2), R(9), R(10), R(11), R(12)],
            [R(13), R(14), W(0), R(15), R(16)],
        ],
        arrivals=[0.5, 0.0, 0.0],
    )
    assert check_serializable(system.history)
    assert len(system.history) == 3


def test_figure10_deferment_increases_value():
    # The headline §3 example: deferring the low-value writer lets the
    # high-value reader commit on time.  SCC-VW > SCC-2S in System Value.
    def build(protocol):
        specs = [
            TransactionSpec.build(
                txn_id=0,
                arrival=0.0,
                steps=[R(8), W(0)],
                txn_class=make_class(num_steps=2, value=1.0),
                step_duration=1.0,
                deadline=3.0,
            ),
            TransactionSpec.build(
                txn_id=1,
                arrival=0.0,
                steps=[R(0), R(9), R(10), R(11)],
                txn_class=make_class(num_steps=4, value=10.0),
                step_duration=1.0,
                deadline=4.5,
            ),
        ]
        system = build_system(protocol, num_pages=64)
        system.load_workload(specs)
        system.run()
        return system

    undeferred = build(SCC2S())
    deferred = build(SCCVW(period=0.25))
    assert (
        deferred.metrics.summary().system_value
        > undeferred.metrics.summary().system_value
    )
    # And the mechanism: T2 met its deadline only under deferment.
    assert commit_time_of(deferred, 1) <= 4.5 < commit_time_of(undeferred, 1)
