"""The batched workload builder equals the transaction generator.

:class:`~repro.engine.array.WorkloadTensors` draws each named stream in
batches, or, for arrival processes and access patterns it cannot batch,
decomposes the generator's own output.  Either way its item ``i`` must be
the generator's transaction ``i``, field by field, on every scenario.
"""

import pytest

from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.workloads.access import AccessPattern
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import build_generator
from repro.workloads.scenarios import available_scenarios, get_scenario

TRANSACTIONS = 300
RATE = 70.0
FIELDS = (
    "txn_id",
    "arrival",
    "deadline",
    "steps",
    "estimated_duration",
    "txn_class",
    "value_function",
)


def scenario_config(scenario):
    return get_scenario(scenario).to_config(
        num_transactions=TRANSACTIONS, warmup_commits=0
    )


def streams(config, replication):
    return RandomStreams(config.seed).spawn(replication)


@pytest.mark.parametrize("replication", [0, 1])
@pytest.mark.parametrize("scenario", available_scenarios())
def test_tensors_equal_the_generator(scenario, replication):
    config = scenario_config(scenario)
    tensors = WorkloadTensors.from_config(config, RATE, streams(config, replication))
    generator = build_generator(config, RATE, streams(config, replication))
    expected = list(generator.generate(TRANSACTIONS))
    built = list(tensors)
    assert len(built) == len(tensors) == TRANSACTIONS
    for got, want in zip(built, expected):
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), (got.txn_id, field)


def test_scenarios_cover_both_builders():
    # The comparison above reaches the batched draws and the fallback.
    batched = set()
    for scenario in available_scenarios():
        config = scenario_config(scenario)
        generator = build_generator(config, RATE, streams(config, 0))
        batched.add(
            type(generator.arrivals) is PoissonArrivals
            and type(generator.access).sample_steps is AccessPattern.sample_steps
        )
    assert batched == {True, False}


def test_items_are_fresh_specs_built_on_demand():
    config = scenario_config("paper-baseline")
    tensors = WorkloadTensors.from_config(config, RATE, streams(config, 0))
    last = tensors[TRANSACTIONS - 1]
    assert tensors[-1] == last and tensors[-1] is not last
    assert last.txn_id == TRANSACTIONS - 1
    with pytest.raises(IndexError):
        tensors[TRANSACTIONS]
