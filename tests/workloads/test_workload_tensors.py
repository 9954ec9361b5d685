"""The workload tensors are a sequence of specs built on demand.

Whether item ``i`` is the right transaction is checked against the
per-transaction reference in ``test_workload_generator.py``.
"""

import pytest

from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.workloads.scenarios import get_scenario

TRANSACTIONS = 300
RATE = 70.0


def test_items_are_fresh_specs_built_on_demand():
    config = get_scenario("paper-baseline").to_config(
        num_transactions=TRANSACTIONS, warmup_commits=0
    )
    streams = RandomStreams(config.seed).spawn(0)
    tensors = WorkloadTensors.from_config(config, RATE, streams)
    last = tensors[TRANSACTIONS - 1]
    assert tensors[-1] == last and tensors[-1] is not last
    assert last.txn_id == TRANSACTIONS - 1
    with pytest.raises(IndexError):
        tensors[TRANSACTIONS]
