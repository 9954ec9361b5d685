"""Termination policies: when does a finished optimistic shadow commit?

The plain SCC protocols commit immediately on validation
(:class:`ImmediateCommit`).  The value-cognizant protocols of §3 defer
commitment when the system expects more value from waiting
(:class:`DeferredTermination` is the shared scaffolding; SCC-DC and SCC-VW
supply the decision rule).

Scheduling discipline: SCC-DC's Termination Rule is *periodic* — "a
special system clock ... ticks with a period Δ, signaling the points in
time when system transactions may be committed" — so a DC-finished shadow
always waits for the next tick.  SCC-VW evaluates as soon as a shadow
finishes and re-evaluates on every system change, with the periodic tick
as a time-decay backstop (votes are time-dependent).  Ticks are scheduled
lazily, only while deferred shadows exist, so simulations drain naturally.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.errors import ProtocolError
from repro.protocols.ranges import check_max_deferral, check_period

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime


class TerminationPolicy(ABC):
    """Decides when finished optimistic shadows commit."""

    def __init__(self) -> None:
        self._protocol: Optional["SCCProtocolBase"] = None

    def bind(self, protocol: "SCCProtocolBase") -> None:
        """Attach to the owning protocol.  Called once by the protocol."""
        if self._protocol is not None:
            raise ProtocolError("termination policy already bound")
        self._protocol = protocol

    def unbind(self) -> None:
        """Detach from the owning protocol (the inverse of :meth:`bind`)."""
        self._protocol = None

    @property
    def protocol(self) -> "SCCProtocolBase":
        """The owning protocol."""
        if self._protocol is None:
            raise ProtocolError("termination policy is not bound")
        return self._protocol

    @abstractmethod
    def on_finished(self, runtime: "SCCTxnRuntime") -> None:
        """``runtime``'s optimistic shadow just finished executing."""

    def on_unfinished(self, runtime: "SCCTxnRuntime") -> None:
        """A deferred finished shadow was aborted (fell back to a shadow)."""

    def on_departure(self, runtime: "SCCTxnRuntime") -> None:
        """``runtime`` committed and left the system."""

    def on_system_change(self) -> None:
        """A commit was fully processed (conflict sets may have shrunk)."""


class ImmediateCommit(TerminationPolicy):
    """Forward validation: finished shadows commit at once (SCC-kS/2S/CB)."""

    def on_finished(self, runtime: "SCCTxnRuntime") -> None:
        """Commit the finished optimistic shadow immediately."""
        self.protocol.commit_transaction(runtime)


class DeferredTermination(TerminationPolicy):
    """Scaffolding for value-cognizant deferral (SCC-DC / SCC-VW).

    Maintains the pool of finished-but-uncommitted transactions, evaluates
    the subclass's decision rule to a fixpoint (committing one transaction
    reshapes everyone else's conflict sets), and keeps a lazy periodic
    tick alive while the pool is non-empty.

    Parameters
    ----------
    period : float
        The Δ of the paper's special system clock (seconds).
    evaluate_eagerly : bool
        SCC-VW evaluates at finish time and on system changes; SCC-DC
        (``False``) only at clock ticks.
    max_deferral : float, optional
        Hard cap on how long a finished shadow may be deferred (a safety
        valve on top of the value math; ``None`` disables it).
    """

    def __init__(
        self,
        period: float,
        evaluate_eagerly: bool,
        max_deferral: Optional[float] = None,
    ) -> None:
        super().__init__()
        check_period(period)
        check_max_deferral(max_deferral)
        self.period = period
        self.max_deferral = max_deferral
        self._evaluate_eagerly = evaluate_eagerly
        self._pool: dict[int, "SCCTxnRuntime"] = {}
        self._finished_at: dict[int, float] = {}
        self._tick_pending = False
        self._evaluating = False
        self._dirty = False

    # ------------------------------------------------------------------
    # decision rule (subclass API)
    # ------------------------------------------------------------------

    @abstractmethod
    def should_commit(self, runtime: "SCCTxnRuntime", now: float) -> bool:
        """Whether deferring ``runtime`` any further loses expected value."""

    # ------------------------------------------------------------------
    # pool events
    # ------------------------------------------------------------------

    def on_finished(self, runtime: "SCCTxnRuntime") -> None:
        """Pool the finished shadow; evaluate now (eager) or await the tick."""
        self._pool[runtime.txn_id] = runtime
        self._finished_at[runtime.txn_id] = self.protocol.system.sim.now
        if self._evaluate_eagerly:
            self._evaluate_pool()
        else:
            self._ensure_tick()

    def on_unfinished(self, runtime: "SCCTxnRuntime") -> None:
        """Drop a deferred shadow that was aborted before it could commit."""
        self._pool.pop(runtime.txn_id, None)
        self._finished_at.pop(runtime.txn_id, None)

    def on_departure(self, runtime: "SCCTxnRuntime") -> None:
        """Forget a transaction that committed and left the system."""
        self._pool.pop(runtime.txn_id, None)
        self._finished_at.pop(runtime.txn_id, None)

    def on_system_change(self) -> None:
        """Re-evaluate (eager) or re-arm the tick after a processed commit."""
        if self._evaluate_eagerly:
            self._evaluate_pool()
        elif self._pool:
            self._ensure_tick()

    @property
    def pending(self) -> int:
        """Number of finished transactions awaiting commitment."""
        return len(self._pool)

    def is_deferred(self, txn_id: int) -> bool:
        """Whether ``txn_id`` is finished and awaiting commitment."""
        return txn_id in self._pool

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _evaluate_pool(self) -> None:
        """Commit every eligible pool member, to a fixpoint."""
        if self._evaluating:
            self._dirty = True
            return
        if not self._pool:
            return  # nothing deferred; skip the scan and the tick check
        self._evaluating = True
        try:
            progress = True
            tracer = self.protocol._tracer
            while progress:
                self._dirty = False
                progress = False
                now = self.protocol.system.sim.now if self.protocol.system else 0.0
                for txn_id in self._evaluation_order():
                    runtime = self._pool.get(txn_id)
                    if runtime is None:
                        continue
                    overdue = (
                        self.max_deferral is not None
                        and now - self._finished_at.get(txn_id, now)
                        >= self.max_deferral
                    )
                    decision = (
                        not self.protocol.transaction_has_conflicts(runtime)
                        or overdue
                        or self.should_commit(runtime, now)
                    )
                    if tracer is not None:
                        tracer.emit(
                            "vote",
                            now,
                            txn_id,
                            data={
                                "decision": "commit" if decision else "defer",
                                "pending": len(self._pool),
                            },
                        )
                    if decision:
                        del self._pool[txn_id]
                        self.protocol.commit_transaction(runtime)
                        progress = True
                        break  # membership changed; rescan
                    if not runtime.deferred:
                        runtime.deferred = True
                        self.protocol.system.metrics.record_deferred_commit()
                if self._dirty:
                    progress = True
        finally:
            self._evaluating = False
        self._ensure_tick()

    def _evaluation_order(self) -> list[int]:
        """Serialization-consistent evaluation order of the pool.

        A finished reader that observed the pre-image of a finished
        writer's pages must commit *before* that writer — otherwise the
        writer's commit would expose (and abort) the very transaction the
        deferral protected (the Figure 10 scenario at the moment both have
        finished).  We therefore topologically order the pool along
        ``reader -> writer`` conflict edges, breaking ties — and any
        mutual-conflict cycles — by EDF.
        """
        pool_ids = set(self._pool)
        # dependents[w] = readers that must commit before writer w.
        in_degree = {tid: 0 for tid in pool_ids}
        readers_of: dict[int, list[int]] = {tid: [] for tid in pool_ids}
        for tid, runtime in self._pool.items():
            for writer in runtime.conflicts.writers():
                if writer in pool_ids and writer != tid:
                    readers_of[tid].append(writer)
                    in_degree[writer] += 1
        def edf_key(tid: int) -> tuple:
            return (self._pool[tid].spec.deadline, tid)

        ready = sorted((t for t in pool_ids if in_degree[t] == 0), key=edf_key)
        order: list[int] = []
        while ready:
            tid = ready.pop(0)
            order.append(tid)
            for writer in readers_of[tid]:
                in_degree[writer] -= 1
                if in_degree[writer] == 0:
                    ready.append(writer)
            ready.sort(key=edf_key)
        if len(order) < len(pool_ids):  # mutual-conflict cycle: EDF fallback
            order.extend(sorted(pool_ids - set(order), key=edf_key))
        return order

    # ------------------------------------------------------------------
    # the Δ clock
    # ------------------------------------------------------------------

    def _ensure_tick(self) -> None:
        """Keep a tick scheduled while deferred shadows exist."""
        if self._tick_pending or not self._pool:
            return
        sim = self.protocol.system.sim
        next_tick = math.floor(sim.now / self.period + 1.0) * self.period
        if next_tick <= sim.now:
            # Guard against floating-point alignment producing a tick at
            # the current instant (which would loop without advancing time).
            next_tick += self.period
        if not sim.now < next_tick < math.inf:
            # So late in a run that a period no longer moves the clock
            # (or a multiple of it overflows): tick at the next instant.
            next_tick = math.nextafter(sim.now, math.inf)
        self._tick_pending = True
        sim.schedule_at(next_tick, self._on_tick, priority=2)

    def _on_tick(self) -> None:
        self._tick_pending = False
        self._evaluate_pool()
