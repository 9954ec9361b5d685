"""Per-client admission control for the experiment gateway.

Every submission is keyed by the ``X-Client`` request header (defaulting
to ``"anonymous"``) and passes three gates before any cell is enqueued:

1. a **token bucket** on submissions — each ``POST /experiments`` spends
   one token from a per-client bucket that refills at ``submit_rate``
   tokens per second up to ``submit_burst``, so a client hammering the
   gateway is throttled without a global lockout;
2. a cap on **concurrent experiments** — experiments the client has
   submitted that are not yet terminal;
3. a cap on **queued cells** — cells the gateway would actually enqueue
   for this client (cached and deduplicated cells are free: they cost the
   service nothing, so they are not charged).

A violated gate raises :class:`QuotaExceeded` *before* any state
changes, which the HTTP layer maps to ``429 Too Many Requests`` with a
``Retry-After`` hint — one greedy client is rejected atomically and
every other client's experiments proceed undisturbed.

A client whose state equals a new one's (nothing running or queued, a
full bucket) is forgotten, so one-off clients leave no entry behind once
their bucket has refilled.

All methods are thread-safe: connection threads admit submissions while
worker threads release cells as they complete.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

__all__ = ["ClientQuotas", "QuotaExceeded", "TokenBucket"]


class QuotaExceeded(Exception):
    """A client tripped an admission gate; nothing was enqueued.

    Attributes
    ----------
    client : str
        The offending client id.
    reason : str
        Human-readable description of the violated gate.
    retry_after : float or None
        Suggested wait (seconds) before retrying, when the gate is
        time-based (the token bucket); ``None`` for hard caps that only
        clear when existing work finishes.
    """

    def __init__(
        self, client: str, reason: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"client {client!r} over quota: {reason}")
        self.client = client
        self.reason = reason
        self.retry_after = retry_after


class TokenBucket:
    """A classic token bucket: ``capacity`` tokens refilled at ``rate``/s.

    The clock is injectable so tests can drive time deterministically.
    Not thread-safe on its own — :class:`ClientQuotas` serializes access.
    """

    def __init__(
        self,
        capacity: float,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"token bucket capacity must be > 0, got {capacity}")
        if rate <= 0:
            raise ValueError(f"token bucket rate must be > 0, got {rate}")
        self.capacity = float(capacity)
        self.rate = float(rate)
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; returns whether they were."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available at the refill rate."""
        self._refill()
        deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)

    def is_full(self) -> bool:
        """Whether the bucket holds its whole capacity again."""
        self._refill()
        return self._tokens >= self.capacity


class _ClientState:
    """Mutable per-client accounting (bucket + live counters)."""

    __slots__ = ("bucket", "experiments", "queued_cells")

    def __init__(self, bucket: TokenBucket) -> None:
        self.bucket = bucket
        self.experiments = 0
        self.queued_cells = 0

    def is_fresh(self) -> bool:
        """Whether this state equals a new client's."""
        return (
            self.experiments == 0
            and self.queued_cells == 0
            and self.bucket.is_full()
        )


class ClientQuotas:
    """Admission control over every client the gateway has seen.

    Args:
        max_queued_cells: Ceiling on a client's enqueued-but-unfinished
            cells (cached/deduplicated cells are not charged).
        max_experiments: Ceiling on a client's concurrently running
            experiments.
        submit_burst: Token-bucket capacity for submissions.
        submit_rate: Token-bucket refill rate (submissions per second).
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        max_queued_cells: int = 10_000,
        max_experiments: int = 8,
        submit_burst: float = 20.0,
        submit_rate: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queued_cells < 1:
            raise ValueError(
                f"max_queued_cells must be >= 1, got {max_queued_cells}"
            )
        if max_experiments < 1:
            raise ValueError(
                f"max_experiments must be >= 1, got {max_experiments}"
            )
        self.max_queued_cells = max_queued_cells
        self.max_experiments = max_experiments
        self.submit_burst = submit_burst
        self.submit_rate = submit_rate
        self._clock = clock
        self._clients: Dict[str, _ClientState] = {}
        # A new client sweeps out fresh states once the table has doubled
        # since the last sweep, so admission stays amortized O(1).
        self._sweep_at = 0
        self._lock = threading.Lock()

    def _state(self, client: str) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            if len(self._clients) >= self._sweep_at:
                self._forget_fresh()
                self._sweep_at = 2 * len(self._clients)
            state = _ClientState(
                TokenBucket(self.submit_burst, self.submit_rate, self._clock)
            )
            self._clients[client] = state
        return state

    def _forget_fresh(self) -> None:
        for client in [c for c, state in self._clients.items() if state.is_fresh()]:
            del self._clients[client]

    def _release(self, client: str, experiments: int, cells: int) -> None:
        with self._lock:
            state = self._clients.get(client)
            if state is None:
                return  # nothing was charged: a recovered experiment
            state.experiments = max(0, state.experiments - experiments)
            state.queued_cells = max(0, state.queued_cells - cells)
            if state.is_fresh():
                del self._clients[client]

    def admit(self, client: str, fresh_cells: int) -> None:
        """Charge one submission enqueueing ``fresh_cells`` cells.

        Checks all gates first and only then commits the charges, so a
        rejected submission leaves the client's accounting untouched.

        Raises:
            QuotaExceeded: When any gate is violated.
        """
        with self._lock:
            state = self._state(client)
            if state.experiments + 1 > self.max_experiments:
                raise QuotaExceeded(
                    client,
                    f"{state.experiments} experiment(s) already running "
                    f"(max {self.max_experiments}); wait for one to finish",
                )
            if state.queued_cells + fresh_cells > self.max_queued_cells:
                raise QuotaExceeded(
                    client,
                    f"submission would enqueue {fresh_cells} cell(s) on top "
                    f"of {state.queued_cells} already queued "
                    f"(max {self.max_queued_cells})",
                )
            if not state.bucket.try_acquire():
                raise QuotaExceeded(
                    client,
                    "submission rate exceeded",
                    retry_after=state.bucket.retry_after(),
                )
            state.experiments += 1
            state.queued_cells += fresh_cells

    def refuse_oversized(self, client: str, min_fresh_cells: int) -> None:
        """Refuse a submission that enqueues at least ``min_fresh_cells`` cells.

        A pre-check for a grid whose fresh cells are only bounded from
        below: it charges nothing and records nothing, so a refused
        submission leaves the client's accounting untouched.

        Raises:
            QuotaExceeded: When that many cells alone overflow the
                client's queued-cell cap.
        """
        with self._lock:
            state = self._clients.get(client)
            queued = state.queued_cells if state is not None else 0
            if queued + min_fresh_cells > self.max_queued_cells:
                raise QuotaExceeded(
                    client,
                    f"submission would enqueue at least {min_fresh_cells} "
                    f"cell(s) on top of {queued} already queued "
                    f"(max {self.max_queued_cells})",
                )

    def cell_finished(self, client: str, count: int = 1) -> None:
        """Release ``count`` queued-cell charges as cells reach a terminal state."""
        self._release(client, 0, count)

    def experiment_finished(self, client: str) -> None:
        """Release one concurrent-experiment charge."""
        self._release(client, 1, 0)

    def snapshot(self) -> dict:
        """JSON-ready per-client usage (for the health endpoint).

        Clients whose state equals a new client's are forgotten first.
        """
        with self._lock:
            self._forget_fresh()
            return {
                client: {
                    "experiments": state.experiments,
                    "queued_cells": state.queued_cells,
                }
                for client, state in sorted(self._clients.items())
            }
