"""Metamorphic relations: transform the input, predict the output.

Two transformations whose effect on every protocol is known without
knowing the right answer:

* **No conflicts.**  With ``write_probability = 0`` no two transactions
  conflict, so no concurrency-control decision can differ: every
  protocol that runs transactions concurrently commits the same
  schedule, with no restarts.  ``serial`` runs one at a time by design.
  SCC-DC commits the same transactions but, by design, holds a finished
  transaction for its next Δ tick, so its mean response time is higher
  by less than one Δ.
* **Value scaling.**  Multiplying each class's value *and* its penalty
  gradient ``tan α`` by one constant ``c`` scales every value function
  (paper §3.1, Defs 1-2) by ``c``.  Value-cognizant decisions compare
  values with each other, so none may change, and system value — a
  percentage of the attainable value — stays put.  (Scaling the value
  alone is not a symmetry: it moves SCC-VW's deferral decisions.)
  SCC-DC is left out: a finished transaction with no executing partners
  compares ``V_later`` with ``V_now``, and at ``c = 10`` float rounding
  makes ``V_later`` exceed ``V_now`` by one ulp, so it defers one Δ it
  does not defer at ``c = 1`` (the no-partner tie fix of ROADMAP item 3,
  step 3).
"""

import math

import pytest

from repro._record import replace
from repro.experiments.runner import run_once
from repro.protocols.registry import (
    ProtocolSpec,
    available_protocols,
    get_protocol_family,
)
from repro.workloads.scenarios import available_scenarios, get_scenario

RATE = 150.0


def scenario_config(name):
    return get_scenario(name).to_config(
        num_transactions=200, warmup_commits=20, replications=1
    )


def run(family, config):
    return run_once(ProtocolSpec.create(family), config, RATE)


@pytest.mark.parametrize("scenario", available_scenarios())
def test_conflict_free_workload_gives_every_protocol_one_schedule(scenario):
    config = scenario_config(scenario)
    config = replace(
        config,
        classes=tuple(
            replace(cls, write_probability=0.0) for cls in config.classes
        ),
    )
    summaries = {family: run(family, config) for family in available_protocols()}
    reference = summaries["occ-bc"]
    assert reference.restarts == 0
    for family, summary in summaries.items():
        if family not in ("serial", "scc-dc"):
            assert summary == reference, family
    deferred = summaries["scc-dc"]
    delta = get_protocol_family("scc-dc").param("period").default
    assert deferred.committed == reference.committed
    assert deferred.restarts == 0
    lag = deferred.avg_response_time - reference.avg_response_time
    assert 0.0 < lag < delta


def scaled(cls, c):
    """``cls`` with its value and penalty gradient both multiplied by c."""
    gradient = c * cls.penalty_gradient
    return replace(
        cls,
        value=c * cls.value,
        alpha_degrees=math.degrees(math.atan(gradient)),
    )


@pytest.mark.parametrize(
    "family", [f for f in available_protocols() if f != "scc-dc"]
)
def test_scaling_values_and_gradients_together_changes_no_decision(family):
    # The two-class mix is where value-cognizant decisions matter: its
    # classes differ 11-fold in value and gradient.
    config = scenario_config("paper-two-class")
    reference = run(family, config)
    for c in (0.25, 2.0, 10.0):
        summary = run(
            family,
            replace(config, classes=tuple(scaled(k, c) for k in config.classes)),
        )
        decisions = ("missed_ratio", "restarts", "shadow_aborts",
                     "deferred_commits")
        for field in decisions:
            assert getattr(summary, field) == getattr(reference, field), (c, field)
        assert summary.system_value == pytest.approx(
            reference.system_value, rel=1e-9
        ), c
