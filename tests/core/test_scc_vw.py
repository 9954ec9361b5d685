"""Scenario tests for SCC-VW (voted waiting, paper §3.3 and Figure 10)."""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.scc_2s import SCC2S
from repro.core.scc_vw import SCCVW, VWTermination
from repro.txn.spec import TransactionSpec
from tests.conftest import R, W, build_system, commit_time_of, make_class


def run_value_scenario(
    protocol, deadlines, values, programs, arrivals=None, alphas=None
):
    specs = [
        TransactionSpec.build(
            txn_id=i,
            arrival=(arrivals or [0.0] * len(programs))[i],
            steps=programs[i],
            txn_class=make_class(
                num_steps=len(programs[i]),
                value=values[i],
                alpha_degrees=(alphas or [45.0] * len(programs))[i],
            ),
            step_duration=1.0,
            deadline=deadlines[i],
        )
        for i in range(len(programs))
    ]
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    system.run()
    return system


FIG10_PROGRAMS = [
    [R(8), W(0)],  # T1: writes x, finishes first, low value
    [R(0), R(9), R(10), R(11)],  # T2: read x early, high value, deadline 4.5
]
FIG10_DEADLINES = [3.0, 4.5]
FIG10_VALUES = [1.0, 10.0]


def test_figure10b_deferment_saves_the_valuable_transaction():
    system = run_value_scenario(
        SCCVW(period=0.25), FIG10_DEADLINES, FIG10_VALUES, FIG10_PROGRAMS
    )
    # T1's commit is deferred (the weighted vote favours T2); T2 commits
    # on time at t=4 having read the pre-T1 version of x, then T1 commits.
    assert commit_time_of(system, 1) == pytest.approx(4.0)
    assert commit_time_of(system, 0) == pytest.approx(4.0)
    assert system.metrics.restarts == 0
    assert system.metrics.summary().deferred_commits == 1
    history = {t.txn_id: t for t in system.history}
    assert history[1].reads[0] == 0  # serialized before the writer
    assert check_serializable(system.history)


def test_figure10a_immediate_commit_costs_value():
    scc2s = run_value_scenario(
        SCC2S(), FIG10_DEADLINES, FIG10_VALUES, list(map(list, FIG10_PROGRAMS))
    )
    vw = run_value_scenario(
        SCCVW(period=0.25), FIG10_DEADLINES, FIG10_VALUES,
        list(map(list, FIG10_PROGRAMS)),
    )
    # Under SCC-2S, T1 commits at 2 and T2 must re-execute from its shadow:
    # it misses its deadline; SCC-VW's deferment earns more System Value.
    assert commit_time_of(scc2s, 1) > FIG10_DEADLINES[1]
    assert commit_time_of(vw, 1) <= FIG10_DEADLINES[1]
    assert (
        vw.metrics.summary().system_value > scc2s.metrics.summary().system_value
    )


def test_votes_flip_when_finished_transaction_is_the_valuable_one():
    # Reverse the stakes: the finished writer is precious with a *steep*
    # penalty gradient (tan α = 5), the conflicting reader is cheap.
    # Deferring to t=4 would cost the writer 5 value units to save the
    # reader 1.5 -> the weighted vote commits immediately; the reader
    # falls back to its blocked shadow and finishes late.
    system = run_value_scenario(
        SCCVW(period=0.25),
        deadlines=[3.0, 4.5],
        values=[10.0, 0.5],
        alphas=[78.69, 45.0],  # tan(78.69°) ≈ 5.0
        programs=[
            [R(8), W(0)],
            [R(0), R(9), R(10), R(11)],
        ],
    )
    assert commit_time_of(system, 0) == pytest.approx(2.0)
    assert commit_time_of(system, 1) > 4.5
    assert check_serializable(system.history)


def test_gentle_gradient_prefers_deferral_even_for_valuable_writer():
    # Same shape but a 45° gradient: losing 1 unit by deferring two
    # seconds is cheaper than costing the reader 1.5 -> defer.
    system = run_value_scenario(
        SCCVW(period=0.25),
        deadlines=[3.0, 4.5],
        values=[10.0, 0.5],
        programs=[
            [R(8), W(0)],
            [R(0), R(9), R(10), R(11)],
        ],
    )
    assert commit_time_of(system, 1) == pytest.approx(4.0)
    assert commit_time_of(system, 0) == pytest.approx(4.0)
    assert check_serializable(system.history)


def test_no_conflicts_commits_immediately():
    system = run_value_scenario(
        SCCVW(period=0.25),
        deadlines=[10.0, 10.0],
        values=[1.0, 1.0],
        programs=[[R(0), R(1)], [R(2), R(3)]],
    )
    assert commit_time_of(system, 0) == pytest.approx(2.0)
    assert commit_time_of(system, 1) == pytest.approx(2.0)
    assert system.metrics.summary().deferred_commits == 0


def test_mutually_finished_transactions_drain():
    # Both finish and conflict with each other: neither has an *executing*
    # partner, so both commit (EDF order) without livelock.
    system = run_value_scenario(
        SCCVW(period=0.25),
        deadlines=[5.0, 6.0],
        values=[1.0, 1.0],
        programs=[
            [R(8), W(0), R(1)],
            [R(0), R(9), W(2)],
        ],
    )
    assert len(system.history) == 2
    assert check_serializable(system.history)


def test_tardy_voters_lose_their_weight():
    # A voter past its break-even point has weight 0; with all weights
    # zero the finished transaction commits rather than waiting for
    # worthless work.
    system = run_value_scenario(
        SCCVW(period=0.25),
        deadlines=[30.0, 0.5],  # T2 hopelessly late from the start
        values=[1.0, 1.0],
        programs=[
            [R(8), W(0)],
            [R(0), R(9), R(10), R(11)],
        ],
    )
    assert commit_time_of(system, 0) == pytest.approx(2.0)
    assert check_serializable(system.history)


def test_threshold_validation():
    with pytest.raises(ValueError):
        VWTermination(period=0.1, commit_threshold=1.0)
    with pytest.raises(ValueError):
        SCCVW(commit_threshold=-0.1)
