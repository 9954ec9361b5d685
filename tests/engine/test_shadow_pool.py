"""Unit tests for the shadow-pool slot allocator and fast-path install.

Covers the :class:`~repro.engine.shadow_pool.ShadowPool` lifecycle —
deterministic lowest-first slot assignment, release/reuse, doubling
growth with occupied slots preserved in place, and the error paths —
plus the structural eligibility rules of
:func:`~repro.engine.shadow_pool.maybe_install_fast_path` (the fused
driver must install exactly when the binding is an SCC protocol with
no hook overrides and infinite resources).  Behavioural
parity of the installed driver lives in ``test_shadow_pool_parity.py``.
"""

import numpy as np
import pytest

from repro.core.scc_2s import SCC2S
from repro.engine.shadow_pool import (
    DEFAULT_POOL_CAPACITY,
    ShadowPool,
    maybe_install_fast_path,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.stats import MetricsCollector
from repro.protocols.registry import available_protocols, protocol_spec
from repro.system.model import RTDBSystem
from repro.system.resources import FiniteResources


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
    assert pool.txn_ids[:3].tolist() == [10, 11, 12]
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
    assert pool.txn_ids[:3].tolist() == [0, 1, 2]
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
    assert np.array_equal(pool.live_slots(), np.array([0, 2]))


# ----------------------------------------------------------------------
# fast-path eligibility
# ----------------------------------------------------------------------


def test_fast_path_installs_on_the_array_engine():
    system = make_system()
    driver = system.protocol.fast_path
    assert driver is not None
    assert driver.pool.capacity == DEFAULT_POOL_CAPACITY
    # The hot entry points are rebound to the driver as instance attrs.
    assert system.protocol._advance.__self__ is driver
    assert system.protocol.on_arrival.__self__ is driver
    assert system.protocol.commit_transaction.__self__ is driver


@pytest.mark.parametrize("name", available_protocols())
def test_fast_path_installs_for_exactly_the_scc_families(name):
    # SCC variants specialize only coverage policy and termination, so
    # every shipped one takes the fused driver by default; no other
    # family does.
    system = make_system(protocol=protocol_spec(name)())
    installed = getattr(system.protocol, "fast_path", None) is not None
    assert installed == name.startswith("scc-")


def test_fast_path_skips_finite_resources():
    resources = FiniteResources(cpu_time=0.001, io_time=0.005, num_servers=2)
    system = make_system(resources=resources)
    assert getattr(system.protocol, "fast_path", None) is None


def test_fast_path_skips_subclasses_overriding_fused_hooks():
    class HookedSCC2S(SCC2S):
        def after_step(self, *args, **kwargs):
            return super().after_step(*args, **kwargs)

    system = make_system(protocol=HookedSCC2S())
    assert getattr(system.protocol, "fast_path", None) is None


def test_reinstall_with_custom_capacity_replaces_the_driver():
    system = make_system()
    first = system.protocol.fast_path
    driver = maybe_install_fast_path(system.protocol, system, capacity=2)
    assert driver is not None and driver is not first
    assert system.protocol.fast_path is driver
    assert driver.pool.capacity == 2
