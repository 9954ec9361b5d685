"""Engine results against the frozen engine reference and the SCC oracle.

``tests/golden/engine_reference.json`` holds single-cell summaries that
the original object engine produced before it was removed.  Every
:class:`~repro.metrics.stats.RunSummary` field must equal the recorded
one *exactly* (``==`` on the summary's dict, no tolerances).  The cells
cover every registered protocol on the paper baseline and every
registered scenario (each arrival process and access pattern, including
the tensor fallback paths for MMPP/diurnal/trace arrivals) on SCC-2S.

Hypothesis-drawn coordinates cannot be frozen in advance, so the sweep
over arbitrary rates and replications compares the SCC step loop with
the generic-hook oracle (:mod:`tests.engine.generic_scc`) on the same
engine.  Finite server pools have no frozen cells either: there the
loop must match the oracle on registered scenarios at 1, 2 and 4
servers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._record import replace
from repro.experiments.runner import run_once
from repro.protocols.registry import available_protocols, protocol_spec
from repro.workloads.scenarios import available_scenarios
from tests.engine.generic_scc import GenericSCCLoop, generic_oracle
from tests.golden.golden_common import (
    cell_config,
    cell_key,
    load_engine_reference,
    run_cell_summary,
)

REFERENCE = load_engine_reference()["summaries"]


def frozen(scenario, protocol, rate, replication=0):
    return REFERENCE[cell_key(scenario, protocol, rate, replication)]


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_protocol_bit_identical_on_paper_baseline(protocol):
    current = run_cell_summary("summaries", "paper-baseline", protocol, 120.0, 0)
    assert current == frozen("paper-baseline", protocol, 120.0)


@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_scenario_bit_identical_on_scc_2s(scenario):
    current = run_cell_summary("summaries", scenario, "scc-2s", 100.0, 1)
    assert current == frozen(scenario, "scc-2s", 100.0, 1)


def test_hotspot_contention_bit_identical_under_twopl():
    # Lock-heavy + skewed access drives the deferral tick and zero-delay
    # restart events — the straggler path of the run loop.
    current = run_cell_summary(
        "summaries", "flash-sale-hotspot", "2pl-pa", 160.0, 0
    )
    assert current == frozen("flash-sale-hotspot", "2pl-pa", 160.0)


def run_on_loop(protocol, rate, replication, oracle, scenario="paper-baseline",
                servers=None):
    """One cell on the step loop or the oracle; returns (summary, protocol)."""
    config = replace(
        cell_config("summaries", scenario), num_servers=servers
    )
    built = []

    def factory():
        built.append(protocol_spec(protocol)())
        return generic_oracle(built[-1]) if oracle else built[-1]

    summary = run_once(
        factory, config, arrival_rate=rate, replication=replication
    )
    return summary.to_dict(), built[0]


def assert_matches_oracle(protocol, rate, replication, **cell):
    summary, loop_protocol = run_on_loop(protocol, rate, replication, False, **cell)
    oracle_summary, oracle = run_on_loop(protocol, rate, replication, True, **cell)
    # Compare the step loop with the oracle, not one loop with itself.
    assert not isinstance(loop_protocol, GenericSCCLoop)
    assert isinstance(oracle, GenericSCCLoop)
    assert summary == oracle_summary


@settings(max_examples=10, deadline=None)
@given(
    rate=st.floats(min_value=30.0, max_value=220.0, allow_nan=False),
    replication=st.integers(min_value=0, max_value=5),
    protocol=st.sampled_from(["scc-2s", "scc-vw", "scc-ks?k=3"]),
)
def test_parity_holds_at_arbitrary_coordinates(rate, replication, protocol):
    assert_matches_oracle(protocol, rate, replication)


@pytest.mark.parametrize("servers", [1, 2, 4])
@pytest.mark.parametrize(
    "scenario, protocol",
    [
        ("paper-baseline", "scc-2s"),
        ("paper-two-class", "scc-vw"),
        ("flash-sale-hotspot", "scc-ks?k=3"),
        ("diurnal-oltp", "scc-dc"),
    ],
)
def test_finite_resources_match_the_oracle(scenario, protocol, servers):
    assert_matches_oracle(protocol, 40.0, 0, scenario=scenario, servers=servers)
