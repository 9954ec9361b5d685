"""Parity of the SCC step loop with the generic-hook oracle.

The loop's contract is that summaries equal the oracle's
(:mod:`tests.engine.generic_scc`) ``==`` — not approximately — on
*every* workload, so these sweeps aim at the schedules most likely to
expose an ordering or state-mirroring bug:

* bursts of transactions arriving at literally the same instant (the
  bucketed dispatch drains them as one cohort, and slot assignment,
  conflict recording, and the Write Rule broadcast all happen inside a
  single drain);
* hotspot programs where every transaction hammers a few pages, maximizing
  conflict-table and reverse-index traffic;
* arrival bursts larger than the pool, forcing the exhaustion/growth path
  mid-run (and, with a capacity-1 pool, repeatedly);
* finite server pools, where requests queue by priority;
* hypothesis-generated schedules mixing all of the above.

Workloads are hand-built specs (no RNG), loaded into directly constructed
systems so the exact same transaction list drives the loop and the
oracle.  The fixed burst is also held against the frozen engine
reference for every registered protocol.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import shadow_pool
from repro.core.scc_base import SCCProtocolBase
from repro.protocols.registry import available_protocols, protocol_spec
from repro.system.resources import FiniteResources
from tests.engine.generic_scc import generic_oracle
from tests.golden.golden_common import (
    ADVERSARIAL_BURST,
    BURST_PAGES,
    build_burst_specs,
    burst_system,
    load_engine_reference,
    run_burst_summary,
)

BURSTS = load_engine_reference()["bursts"]


def run_schedule(
    protocol_name,
    schedule,
    oracle=False,
    capacity=shadow_pool.DEFAULT_POOL_CAPACITY,
    servers=None,
):
    """Run a hand-built schedule; return (summary, the step loop or None)."""
    protocol = protocol_spec(protocol_name)()
    if oracle:
        generic_oracle(protocol)
    resources = (
        FiniteResources(cpu_time=0.001, io_time=0.005, num_servers=servers)
        if servers is not None
        else None
    )
    with mock.patch.object(shadow_pool, "DEFAULT_POOL_CAPACITY", capacity):
        system = burst_system(protocol, resources=resources)
    system.load_workload(build_burst_specs(schedule))
    system.run()
    return system.metrics.summary().to_dict(), protocol._driver


def assert_parity(protocol_name, schedule, **options):
    summary, driver = run_schedule(protocol_name, schedule, **options)
    options.pop("capacity", None)
    oracle_summary, oracle_driver = run_schedule(
        protocol_name, schedule, oracle=True, **options
    )
    # The sweep must compare the step loop with the oracle, not one
    # loop with itself.
    assert driver is not None
    assert oracle_driver is None
    assert summary == oracle_summary
    return summary, driver


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_protocol_bit_identical_on_same_instant_bursts(protocol):
    assert run_burst_summary(protocol) == BURSTS[protocol]
    if isinstance(protocol_spec(protocol)(), SCCProtocolBase):
        assert_parity(protocol, ADVERSARIAL_BURST)


def test_burst_larger_than_pool_grows_and_stays_identical():
    # 80 simultaneous arrivals against a pool built at capacity 16:
    # every slot is claimed inside one bucket drain, the pool doubles
    # (16 -> 32 -> 64 -> 128) mid-drain, and results must not move.
    schedule = [
        (0.0, ((txn % BURST_PAGES, txn % 4 == 0), ((txn + 7) % BURST_PAGES, False)))
        for txn in range(80)
    ]
    summary, driver = assert_parity("scc-2s", schedule, capacity=16)
    pool = driver.pool
    assert summary["committed"] == 80
    assert pool.grow_events >= 1
    assert pool.capacity >= 80
    # Every transaction departed: all slots returned, mirrors cleared.
    assert len(pool) == 0
    assert pool.free_slots == pool.capacity
    assert all(mask == 0 for mask in pool.read_masks)
    assert all(mask == 0 for mask in pool.write_masks)


def test_capacity_one_pool_grows_repeatedly_and_stays_identical():
    _, driver = assert_parity("scc-ks", ADVERSARIAL_BURST, capacity=1)
    assert driver.pool.grow_events >= 3


# ----------------------------------------------------------------------
# hypothesis sweep: arbitrary same-instant schedules
# ----------------------------------------------------------------------


@st.composite
def adversarial_schedules(draw):
    """Schedules with few distinct instants and a small hot page set.

    Arrival times come from a coarse grid so multiple transactions share
    instants by construction; pages come from an 8-page universe so the
    conflict machinery is never idle.
    """
    num_txns = draw(st.integers(min_value=2, max_value=14))
    num_instants = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(num_txns):
        instant = draw(st.integers(min_value=0, max_value=num_instants - 1))
        steps = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            )
        )
        rows.append((instant * 0.017, tuple(steps)))
    rows.sort(key=lambda row: row[0])
    return rows


@settings(max_examples=25, deadline=None)
@given(
    schedule=adversarial_schedules(),
    protocol=st.sampled_from(["scc-2s", "scc-ks", "scc-vw"]),
    servers=st.sampled_from([None, 1, 2, 4]),
)
def test_parity_holds_on_arbitrary_same_instant_schedules(
    schedule, protocol, servers
):
    assert_parity(protocol, schedule, servers=servers)


@settings(max_examples=10, deadline=None)
@given(schedule=adversarial_schedules(), capacity=st.integers(1, 4))
def test_parity_survives_tiny_pools(schedule, capacity):
    assert_parity("scc-2s", schedule, capacity=capacity)
