"""Unit tests for the shadow-pool slot allocator and the step-loop install.

Covers the :class:`~repro.core.shadow_pool.ShadowPool` lifecycle —
deterministic lowest-first slot assignment, release/reuse, doubling
growth with occupied slots preserved in place, and the error paths —
plus the install: ``SCCProtocolBase.bind`` builds the SCC step loop for
every registered ``scc-*`` family under every resource model, and every
page access of such a run is serviced through the loop.  Behavioural
parity of the loop lives in ``test_shadow_pool_parity.py``.
"""

import pytest

from repro.core.scc_2s import SCC2S
from repro.core.shadow_pool import (
    DEFAULT_POOL_CAPACITY,
    FusedSCCStepDriver,
    ShadowPool,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.stats import MetricsCollector
from repro.protocols.registry import available_protocols, protocol_spec
from repro.system.model import RTDBSystem
from repro.system.resources import FiniteResources, InfiniteResources
from tests.golden.golden_common import ADVERSARIAL_BURST, build_burst_specs


def make_system(protocol=None, resources=None):
    return RTDBSystem(
        protocol=protocol or SCC2S(),
        num_pages=32,
        resources=resources,
        metrics=MetricsCollector(warmup_commits=0),
        record_history=False,
    )


# ----------------------------------------------------------------------
# ShadowPool slot lifecycle
# ----------------------------------------------------------------------


def test_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        ShadowPool(0)
    with pytest.raises(ConfigurationError):
        ShadowPool(-3)


def test_slots_are_assigned_lowest_first():
    pool = ShadowPool(4)
    assert [pool.acquire(txn) for txn in (10, 11, 12)] == [0, 1, 2]
    assert pool.slot_of == {10: 0, 11: 1, 12: 2}
    assert pool.txn_ids[:3] == [10, 11, 12]
    assert len(pool) == 3
    assert pool.free_slots == 1


def test_release_returns_slot_and_clears_state():
    pool = ShadowPool(4)
    slot = pool.acquire(7)
    pool.read_masks[slot] = 0b1010
    pool.write_masks[slot] = 0b0010
    pool.release(7)
    assert pool.txn_ids[slot] == -1
    assert pool.read_masks[slot] == 0
    assert pool.write_masks[slot] == 0
    assert len(pool) == 0
    # The freed slot is reused first (deterministic assignment).
    assert pool.acquire(8) == slot


def test_double_acquire_and_unknown_release_raise():
    pool = ShadowPool(2)
    pool.acquire(1)
    with pytest.raises(ProtocolError):
        pool.acquire(1)
    with pytest.raises(ProtocolError):
        pool.release(99)


def test_growth_doubles_and_preserves_occupied_slots():
    pool = ShadowPool(2)
    pool.acquire(0)
    pool.acquire(1)
    pool.read_masks[0] = 0b101
    pool.write_masks[1] = 0b010
    assert pool.grow_events == 0
    # Third acquire exhausts the pool and triggers a doubling.
    assert pool.acquire(2) == 2
    assert pool.grow_events == 1
    assert pool.capacity == 4
    assert len(pool.read_masks) == len(pool.write_masks) == 4
    # Occupied slots (ids and masks) survive the growth in place.
    assert pool.txn_ids[:3] == [0, 1, 2]
    assert pool.read_masks[0] == 0b101
    assert pool.write_masks[1] == 0b010
    # Growth keeps handing out ascending slots.
    assert pool.acquire(3) == 3
    assert pool.grow_events == 1


def test_repeated_growth_from_capacity_one():
    pool = ShadowPool(1)
    for txn in range(9):
        assert pool.acquire(txn) == txn
    assert pool.capacity == 16
    assert pool.grow_events == 4
    for txn in range(9):
        pool.release(txn)
    assert pool.free_slots == 16


def test_live_slots_reduction():
    pool = ShadowPool(8)
    for txn in (5, 6, 7):
        pool.acquire(txn)
    pool.release(6)
    assert pool.live_slots() == [0, 2]


# ----------------------------------------------------------------------
# the step-loop install (the "fast_path" test names predate the single
# SCC loop, when it was an optional fast path)
# ----------------------------------------------------------------------


def test_fast_path_installs_on_the_array_engine():
    system = make_system()
    protocol = system.protocol
    driver = protocol._driver
    assert isinstance(driver, FusedSCCStepDriver)
    assert driver.pool.capacity == DEFAULT_POOL_CAPACITY
    system.close()
    # Closing the run releases the loop.
    assert protocol._driver is None


class _Recording:
    """A resource-manager mixin noting every completion callback requested."""

    def request(self, execution, on_done, *args):
        self.callbacks.add(on_done)
        super().request(execution, on_done, *args)


class _RecordingInfinite(_Recording, InfiniteResources):
    """Infinite resources that note every completion callback."""


class _RecordingFinite(_Recording, FiniteResources):
    """A finite server pool that notes every completion callback."""


def _resources(model):
    resources = (
        _RecordingInfinite(cpu_time=0.001, io_time=0.005)
        if model == "infinite"
        else _RecordingFinite(cpu_time=0.001, io_time=0.005, num_servers=2)
    )
    resources.callbacks = set()
    return resources


@pytest.mark.parametrize("name", available_protocols())
def test_fast_path_installs_for_exactly_the_scc_families(name):
    # Every SCC family runs the one step loop under both resource models
    # (variants specialize coverage and termination, never the loop):
    # the loop is bound, and every access it requests completes into
    # it.  No other family builds one.
    scc = name.startswith("scc-")
    for model in ("infinite", "finite"):
        resources = _resources(model)
        system = make_system(protocol=protocol_spec(name)(), resources=resources)
        driver = getattr(system.protocol, "_driver", None)
        assert isinstance(driver, FusedSCCStepDriver) == scc, model
        system.load_workload(build_burst_specs(ADVERSARIAL_BURST))
        system.run()
        assert system.committed_count == len(ADVERSARIAL_BURST)
        if scc:
            assert resources.callbacks == {driver._step}, model
        else:
            assert driver is None
        system.close()
