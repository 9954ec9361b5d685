"""Unit tests for the gateway's per-client admission control."""

import pytest

from repro.gateway.quotas import ClientQuotas, QuotaExceeded, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_spends(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate=1, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, rate=2, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 0.5s * 2/s = 1 token
        assert bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate=10, clock=clock)
        clock.advance(100)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_names_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, rate=0.5, clock=clock)
        bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, rate=1)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, rate=0)


class TestClientQuotas:
    def make(self, **kwargs) -> tuple:
        clock = FakeClock()
        kwargs.setdefault("max_queued_cells", 10)
        kwargs.setdefault("max_experiments", 2)
        kwargs.setdefault("submit_burst", 100.0)
        kwargs.setdefault("submit_rate", 100.0)
        return ClientQuotas(clock=clock, **kwargs), clock

    def test_admits_within_limits(self):
        quotas, _ = self.make()
        quotas.admit("alice", 5)
        quotas.admit("alice", 5)

    def test_caps_concurrent_experiments(self):
        quotas, _ = self.make(max_experiments=1)
        quotas.admit("alice", 1)
        with pytest.raises(QuotaExceeded, match="1 experiment"):
            quotas.admit("alice", 1)
        quotas.experiment_finished("alice")
        quotas.admit("alice", 1)

    def test_caps_queued_cells(self):
        quotas, _ = self.make(max_queued_cells=8)
        quotas.admit("alice", 6)
        with pytest.raises(QuotaExceeded, match="enqueue 3"):
            quotas.admit("alice", 3)
        quotas.cell_finished("alice", count=6)
        quotas.admit("alice", 3)

    def test_refuse_oversized_checks_the_cap_and_records_nothing(self):
        quotas, _ = self.make(max_queued_cells=8)
        quotas.refuse_oversized("alice", 8)
        quotas.refuse_oversized("alice", -3)  # stored cells cover the grid
        with pytest.raises(QuotaExceeded, match="at least 9"):
            quotas.refuse_oversized("alice", 9)
        assert quotas.snapshot() == {}
        quotas.admit("alice", 6)
        with pytest.raises(QuotaExceeded, match="on top of 6"):
            quotas.refuse_oversized("alice", 10**20)
        assert quotas.snapshot()["alice"] == {
            "experiments": 1,
            "queued_cells": 6,
        }

    def test_rate_limit_sets_retry_after(self):
        quotas, clock = self.make(submit_burst=1.0, submit_rate=0.5)
        quotas.admit("alice", 0)
        with pytest.raises(QuotaExceeded) as info:
            quotas.admit("alice", 0)
        assert info.value.retry_after == pytest.approx(2.0)
        clock.advance(2.0)
        quotas.experiment_finished("alice")
        quotas.admit("alice", 0)

    def test_rejection_charges_nothing(self):
        quotas, _ = self.make(max_queued_cells=5, max_experiments=5)
        with pytest.raises(QuotaExceeded):
            quotas.admit("alice", 6)
        # The failed submission spent neither an experiment slot nor a
        # token: a within-limits retry goes straight through.
        quotas.admit("alice", 5)
        assert quotas.snapshot()["alice"] == {
            "experiments": 1,
            "queued_cells": 5,
        }

    def test_clients_are_independent(self):
        quotas, _ = self.make(max_experiments=1)
        quotas.admit("alice", 1)
        quotas.admit("bob", 1)  # alice's charge does not touch bob
        with pytest.raises(QuotaExceeded):
            quotas.admit("alice", 1)

    def test_hard_cap_has_no_retry_after(self):
        quotas, _ = self.make(max_experiments=1)
        quotas.admit("alice", 0)
        with pytest.raises(QuotaExceeded) as info:
            quotas.admit("alice", 0)
        assert info.value.retry_after is None

    def test_one_off_clients_are_forgotten_once_their_bucket_refills(self):
        # Each client spends one token of two; at 1 token/s its bucket is
        # full again 1 s later, so about 100 clients (one per 10 ms) are
        # still refilling at any time and the rest hold no entry.
        quotas, clock = self.make(submit_burst=2.0, submit_rate=1.0)
        largest = 0
        for i in range(2000):
            quotas.admit(f"client-{i}", 0)
            quotas.experiment_finished(f"client-{i}")
            largest = max(largest, len(quotas._clients))
            clock.advance(0.01)
        assert largest <= 2 * 101 + 1
        clock.advance(1.0)
        assert quotas.snapshot() == {}
        assert quotas._clients == {}

    def test_spent_burst_still_throttles_after_experiments_finish(self):
        quotas, _ = self.make(submit_burst=2.0, submit_rate=0.5)
        quotas.admit("alice", 1)
        quotas.admit("alice", 1)
        quotas.cell_finished("alice", count=2)
        quotas.experiment_finished("alice")
        quotas.experiment_finished("alice")
        for i in range(50):  # new clients sweep the table as it grows
            quotas.admit(f"other-{i}", 0)
        assert quotas.snapshot()["alice"] == {"experiments": 0, "queued_cells": 0}
        with pytest.raises(QuotaExceeded) as info:
            quotas.admit("alice", 0)
        assert info.value.retry_after == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ClientQuotas(max_queued_cells=0)
        with pytest.raises(ValueError):
            ClientQuotas(max_experiments=0)
