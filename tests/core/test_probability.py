"""Unit tests for SCC-DC's probabilistic machinery (Definitions 4-7)."""

import math

import pytest

from repro.core import probability, scc_dc
from repro.core.probability import (
    AdoptionProfile,
    ShadowComponent,
    adoption_profiles,
    expected_commit_value,
)
from repro.core.scc_ks import SCCkS
from repro.errors import ConfigurationError
from repro.experiments.runner import run_once
from repro.protocols.registry import protocol_spec
from repro.values.value_function import ValueFunction
from repro.workloads.scenarios import available_scenarios, get_scenario
from tests.conftest import R, W, build_system, make_class
from tests.core.dc_tick_oracle import MAX_TICKS, tick_walk_value
from repro.txn.spec import TransactionSpec


def _system_with(programs, values=None, deadlines=None, until=1.7):
    protocol = SCCkS(k=3)
    specs = []
    for i, program in enumerate(programs):
        value = values[i] if values else 1.0
        deadline = deadlines[i] if deadlines else 100.0
        specs.append(
            TransactionSpec.build(
                txn_id=i,
                arrival=0.0 if i > 0 else 0.0,
                steps=program,
                txn_class=make_class(num_steps=len(program), value=value),
                step_duration=1.0,
                deadline=deadline,
            )
        )
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    system.sim.run(until=until)
    return protocol, system


class TestAdoptionProfiles:
    def test_no_conflicts_probability_one(self):
        protocol, _ = _system_with([[R(0), R(1)], [R(2), R(3)]])
        profiles = adoption_profiles(protocol, now=0.5)
        for profile in profiles.values():
            assert profile.p_optimistic == pytest.approx(1.0)
            assert profile.p_writer == {}

    def test_single_conflict_equal_values_splits_evenly(self):
        # T0 reads page 0 which T1 wrote: P_o = V0 / (V0 + V1*P_o_1) and
        # T1 has no incoming conflicts so P_o_1 = 1 -> P_o_0 = 0.5.
        protocol, _ = _system_with(
            [[R(5), R(0), R(6), R(7)], [W(0), R(8), R(9), R(10)]],
            until=2.5,
        )
        profiles = adoption_profiles(protocol, now=2.4)
        p0 = profiles[0]
        assert p0.p_optimistic == pytest.approx(0.5)
        assert p0.p_writer[1] == pytest.approx(0.5)
        assert p0.total() == pytest.approx(1.0)
        assert profiles[1].p_optimistic == pytest.approx(1.0)

    def test_higher_valued_writer_gets_more_mass(self):
        protocol, _ = _system_with(
            [[R(5), R(0), R(6), R(7)], [W(0), R(8), R(9), R(10)]],
            values=[1.0, 3.0],
            until=2.5,
        )
        profiles = adoption_profiles(protocol, now=2.4)
        assert profiles[0].p_writer[1] == pytest.approx(0.75)
        assert profiles[0].p_optimistic == pytest.approx(0.25)

    def test_exclude_removes_committer_from_denominators(self):
        protocol, _ = _system_with(
            [[R(5), R(0), R(6), R(7)], [W(0), R(8), R(9), R(10)]],
            until=2.5,
        )
        profiles = adoption_profiles(protocol, now=2.4, exclude=1)
        assert profiles[0].p_optimistic == pytest.approx(1.0)
        assert 1 not in profiles

    def test_mass_always_sums_to_one(self):
        protocol, _ = _system_with(
            [
                [R(5), R(0), R(1), R(7)],
                [W(0), R(8), R(9), R(10)],
                [W(1), R(11), R(12), R(13)],
            ],
            until=2.5,
        )
        for profile in adoption_profiles(protocol, now=2.4).values():
            assert profile.total() == pytest.approx(1.0)


class TestExpectedCommitValue:
    def test_finished_component_commits_next_tick(self):
        vf = ValueFunction(value=10.0, deadline=100.0, penalty_gradient=1.0)
        result = expected_commit_value(
            vf,
            1.0,
            [ShadowComponent(probability=1.0, elapsed=None)],
            now=0.0,
            delta=0.5,
        )
        assert result == pytest.approx(10.0)

    def test_deterministic_component_lands_at_remaining_time(self):
        # 4s total, 1s done -> finishes 3s from now.  Deadline at 2s with
        # unit gradient: V(3) = 10 - 1 = 9 (tick grid aligned, delta=1).
        vf = ValueFunction(value=10.0, deadline=2.0, penalty_gradient=1.0)
        result = expected_commit_value(
            vf,
            4.0,
            [ShadowComponent(probability=1.0, elapsed=1.0)],
            now=0.0,
            delta=1.0,
        )
        assert result == pytest.approx(9.0)

    def test_remaining_time_rounds_up_to_the_next_tick(self):
        # 2.5s left on a 1s grid: the shadow is done by the third tick.
        vf = ValueFunction(value=10.0, deadline=0.0, penalty_gradient=1.0)
        result = expected_commit_value(
            vf,
            3.0,
            [ShadowComponent(probability=1.0, elapsed=0.5)],
            now=0.0,
            delta=1.0,
        )
        assert result == 7.0

    def test_outlived_duration_commits_next_tick(self):
        vf = ValueFunction(value=10.0, deadline=0.0, penalty_gradient=1.0)
        result = expected_commit_value(
            vf,
            2.0,
            [ShadowComponent(probability=1.0, elapsed=5.0)],
            now=0.0,
            delta=0.5,
        )
        assert result == 9.5

    def test_probability_weights_mix(self):
        vf = ValueFunction(value=10.0, deadline=100.0, penalty_gradient=1.0)
        components = [
            ShadowComponent(probability=0.3, elapsed=None),
            ShadowComponent(probability=0.7, elapsed=0.0),
        ]
        result = expected_commit_value(vf, 2.0, components, now=0.0, delta=1.0)
        # Both paths commit before the deadline: full value either way.
        assert result == pytest.approx(10.0)

    def test_zero_probability_component_ignored(self):
        vf = ValueFunction(value=5.0, deadline=10.0, penalty_gradient=1.0)
        result = expected_commit_value(
            vf,
            1.0,
            [ShadowComponent(probability=0.0, elapsed=0.0)],
            now=0.0,
            delta=1.0,
        )
        assert result == 0.0

    def test_invalid_delta_rejected(self):
        vf = ValueFunction(value=5.0, deadline=10.0, penalty_gradient=1.0)
        with pytest.raises(ConfigurationError):
            expected_commit_value(vf, 1.0, [], 0.0, 0.0)


# ----------------------------------------------------------------------
# the closed form against the Δ-tick walk (tests/core/dc_tick_oracle.py)
# ----------------------------------------------------------------------


def _quotient_tick(duration, elapsed, delta):
    return min(max(math.ceil((duration - elapsed) / delta), 1), MAX_TICKS)


class TestClosedFormMatchesTickWalk:
    """``expected_commit_value`` equals the tick walk exactly (``==``)."""

    @staticmethod
    def assert_matches(duration, components, now, delta):
        # A tardy deadline at ``now`` gives every tick its own value, so a
        # component that lands one tick off changes the result.
        vf = ValueFunction(value=10.0, deadline=now, penalty_gradient=3.0)
        closed = expected_commit_value(vf, duration, components, now, delta)
        assert closed == tick_walk_value(vf, duration, components, now, delta)
        return closed

    @pytest.mark.parametrize(
        "components",
        [
            [ShadowComponent(probability=1.0, elapsed=None)],
            [ShadowComponent(probability=0.0, elapsed=0.1)],
            [ShadowComponent(probability=0.0, elapsed=None)],
            [
                ShadowComponent(probability=0.25, elapsed=None),
                ShadowComponent(probability=0.0, elapsed=0.05),
                ShadowComponent(probability=0.75, elapsed=0.13),
            ],
        ],
        ids=["finished", "zero-probability", "zero-finished", "mixture"],
    )
    def test_finished_and_zero_probability_components(self, components):
        self.assert_matches(0.4, components, now=3.0, delta=0.01)

    @pytest.mark.parametrize(
        "elapsed",
        [math.nextafter(0.4, 0.0), 0.4, math.nextafter(0.4, 1.0), 0.41, 7.0],
    )
    def test_shadow_at_its_duration_commits_next_tick(self, elapsed):
        closed = self.assert_matches(
            0.4, [ShadowComponent(probability=1.0, elapsed=elapsed)], 2.0, 0.01
        )
        vf = ValueFunction(value=10.0, deadline=2.0, penalty_gradient=3.0)
        assert closed == vf(2.0 + 0.01)

    @pytest.mark.parametrize(
        "duration,elapsed,delta",
        [(0.5, 0.0, 1e-5), (3.0, 0.2, 1e-4), (0.5, 0.0, 0.5 / MAX_TICKS / 1.5)],
    )
    def test_tick_cap_fires(self, duration, elapsed, delta):
        assert _quotient_tick(duration, elapsed, delta) == MAX_TICKS
        assert probability._finish_tick(duration, elapsed, 0.0, delta) == MAX_TICKS
        self.assert_matches(
            duration, [ShadowComponent(probability=1.0, elapsed=elapsed)], 0.0, delta
        )

    @pytest.mark.parametrize(
        "duration,elapsed,now,delta",
        [
            # tick - now rounds up past the remaining time: the first tick
            # already finishes, where the quotient says the second.
            (0.04, 0.03, 12345.67, 0.01),
            # Δ below half an ulp of now: ticks repeat for runs of k, so
            # the tick found lies several ticks below the quotient.
            (1e-11, 0.0, 1e4, 1e-13),
            (3e-11, 1e-11, 98765.4321, 1e-13),
            # Every tick rounds to now: the cap ends the walk.
            (0.05, 0.0, 1e6, 1e-14),
        ],
    )
    def test_large_now_where_ticks_round(self, duration, elapsed, now, delta):
        k = probability._finish_tick(duration, elapsed, now, delta)
        assert k != _quotient_tick(duration, elapsed, delta) or k == MAX_TICKS
        self.assert_matches(
            duration, [ShadowComponent(probability=1.0, elapsed=elapsed)], now, delta
        )

    def test_grid_aligned_durations(self):
        # Durations and elapsed times on a step grid, as in a real run,
        # put the quotient exactly on (or one ulp beside) an integer.
        missed = 0
        for now in (0.0, 0.37, 516.41, 12345.67):
            for delta in (0.005, 0.01, 0.025):
                for steps in range(1, 24):
                    for done in range(0, 26, 3):
                        duration, elapsed = steps * 0.0125, done * 0.0125
                        component = ShadowComponent(probability=1.0, elapsed=elapsed)
                        self.assert_matches(duration, [component], now, delta)
                        missed += probability._finish_tick(
                            duration, elapsed, now, delta
                        ) != _quotient_tick(duration, elapsed, delta)
        assert missed > 0


@pytest.mark.parametrize("scenario", available_scenarios())
def test_closed_form_matches_tick_walk_on_every_call_of_a_cell(scenario, monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return expected_commit_value(*args)

    monkeypatch.setattr(scc_dc, "expected_commit_value", recorded)
    config = get_scenario(scenario).to_config(
        num_transactions=50, warmup_commits=0, replications=1,
        check_serializability=False,
    )
    summary = run_once(protocol_spec("scc-dc"), config, 120.0, 0)
    assert summary.committed == 50
    assert any(
        component.elapsed is not None
        for args in calls
        for component in args[2]
    )
    for args in calls:
        assert expected_commit_value(*args) == tick_walk_value(*args), args
