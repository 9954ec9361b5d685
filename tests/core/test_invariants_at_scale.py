"""SCC invariants checked mid-run on registered scenarios (paper Figs 3, 6).

The unit tests call ``check_invariants`` on hand-built schedules of a few
transactions.  Here every speculating family steps a cell of every
registered scenario in short ``sim.run(until=...)`` slices and checks
after each one: the per-transaction shadow budget, each speculative
shadow waiting only on writers in its conflict table, the step loop's
mirrored state (pool bitsets, dispatch cohorts, the version list), and
the rest of :meth:`~repro.core.scc_base.SCCProtocolBase.check_invariants`
— under infinite resources and under a two-server pool, where requests
queue.
"""

import pytest

from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.metrics.stats import MetricsCollector
from repro.protocols.registry import protocol_spec
from repro.system.model import RTDBSystem
from repro.system.resources import FiniteResources, InfiniteResources
from repro.workloads.scenarios import available_scenarios, get_scenario

TRANSACTIONS = 150
RATE = 120.0
#: Simulated seconds between two checks.
SLICE = 0.05


def check_at_every_slice(scenario, spec, resources):
    """Run one cell in slices, calling ``check_invariants`` after each."""
    config = get_scenario(scenario).to_config(
        num_transactions=TRANSACTIONS, warmup_commits=0, replications=1
    )
    protocol = protocol_spec(spec)()
    system = RTDBSystem(
        protocol=protocol,
        num_pages=config.num_pages,
        resources=resources(config),
        metrics=MetricsCollector(warmup_commits=0),
        record_history=False,
    )
    try:
        streams = RandomStreams(config.seed).spawn(0)
        tensors = WorkloadTensors.from_config(config, RATE, streams)
        system.load_workload(list(tensors))
        checkpoints = 0
        while system.committed_count < TRANSACTIONS:
            checkpoints += 1
            assert checkpoints < 1000, "cell did not finish"
            system.sim.run(until=checkpoints * SLICE)
            protocol.check_invariants()
        assert checkpoints >= 20
        system.run()
        assert system.committed_count == TRANSACTIONS
    finally:
        system.close()


@pytest.mark.parametrize("scenario", available_scenarios())
@pytest.mark.parametrize("spec", ["scc-2s", "scc-ks?k=3", "scc-cb", "scc-vw", "scc-dc"])
def test_invariants_hold_at_every_checkpoint(scenario, spec):
    check_at_every_slice(
        scenario,
        spec,
        lambda config: InfiniteResources(
            cpu_time=config.cpu_time, io_time=config.io_time
        ),
    )


@pytest.mark.parametrize("scenario", available_scenarios())
@pytest.mark.parametrize("spec", ["scc-2s", "scc-ks?k=3", "scc-cb", "scc-vw", "scc-dc"])
def test_invariants_hold_under_finite_resources(scenario, spec):
    check_at_every_slice(
        scenario,
        spec,
        lambda config: FiniteResources(
            cpu_time=config.cpu_time, io_time=config.io_time, num_servers=2
        ),
    )
