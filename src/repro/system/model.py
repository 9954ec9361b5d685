"""The logical RTDBS model (paper Figure 12).

Wires together the five modules of the paper's system model: the
Transaction Pool (pending arrivals), the Transaction Manager (the step loop
in :class:`repro.protocols.base.CCProtocol`), the Resource Manager, the
Concurrency Control Manager (the protocol object), and the Transaction Sink
(metrics + committed history).

The system is the single authority for commits: protocols call
:meth:`RTDBSystem.commit` with the committing execution, and the system
validates freshness (no live execution may commit a stale read — the
library-wide invariant), installs the write batch, and records metrics and
the serializability footprint.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.analysis.history import History
from repro.db.database import Database
from repro.engine.array import ArraySimulator, WorkloadTensors
from repro.errors import InvariantViolation, ProtocolError
from repro.metrics.stats import MetricsCollector
from repro.protocols.base import CCProtocol, Execution, execution_mode
from repro.system.resources import InfiniteResources, ResourceManager
from repro.telemetry.counters import CounterRegistry
from repro.txn.spec import TransactionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only: whoever builds a tracer loads it
    from repro.telemetry.tracer import Tracer

# Arrivals fire after same-instant commit processing (commits use priority
# 0); this keeps "commit then immediately arrive" deterministic.
_ARRIVAL_PRIORITY = 10


class RTDBSystem:
    """A complete simulated real-time database system.

    Args:
        protocol: The concurrency-control protocol under test.
        num_pages: Database size in pages.
        resources: Resource manager; defaults to the paper's infinite
            resources with 1 ms CPU + 5 ms I/O per page access.
        metrics: Metrics collector; a fresh one is created by default.
        record_history: Whether to record the committed history for
            serializability checking (cheap; on by default).
        tracer: Optional :class:`~repro.telemetry.tracer.Tracer` sink for
            typed lifecycle events.  ``None`` (the default) disables
            tracing entirely; instrumented code then pays one attribute
            load per potential event.  Tracing never draws RNG and never
            perturbs event order, so results are identical either way.
    """

    def __init__(
        self,
        protocol: CCProtocol,
        num_pages: int,
        resources: Optional[ResourceManager] = None,
        metrics: Optional[MetricsCollector] = None,
        record_history: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = ArraySimulator()
        self.tracer = tracer
        self.counters = CounterRegistry()
        # Ask the engine to track peak pending-event depth (a cheap
        # integer compare per fired event) for the telemetry block.
        self.sim.metered = True
        self.db = Database(num_pages)
        self.resources = resources or InfiniteResources(cpu_time=0.001, io_time=0.005)
        self.resources.bind(self.sim)
        self.metrics = metrics or MetricsCollector()
        self.history: Optional[History] = History() if record_history else None
        self.protocol = protocol
        protocol.bind(self)
        self._committed_ids: set[int] = set()
        self._active: dict[int, TransactionSpec] = {}

    # ------------------------------------------------------------------
    # workload intake (Transaction Pool)
    # ------------------------------------------------------------------

    def load_workload(self, specs: Iterable[TransactionSpec]) -> int:
        """Schedule the arrival of every spec.  Returns the count loaded.

        The workload enters the engine as one arrival track
        (:meth:`~repro.engine.array.ArraySimulator.schedule_batch`) whose
        payload is each transaction's index into it.  Transaction ``i``
        is looked up only when its arrival fires, so a
        :class:`~repro.engine.array.WorkloadTensors` workload builds each
        spec as it arrives and the Transaction Pool holds no specs.
        Arrivals fire in (time, list position) order, as if each spec
        were scheduled in turn.
        """
        if isinstance(specs, WorkloadTensors):
            workload, times = specs, specs.arrivals
        else:
            workload = list(specs)
            times = [float(spec.arrival) for spec in workload]
        # A stable sort: equal arrival times keep their list order.
        order = sorted(range(len(times)), key=times.__getitem__)
        return self.sim.schedule_batch(
            [times[index] for index in order],
            functools.partial(self._arrive_from, workload),
            [(index,) for index in order],
            priority=_ARRIVAL_PRIORITY,
        )

    def _arrive_from(self, workload: Sequence[TransactionSpec], index: int) -> None:
        self._arrive(workload[index])

    def _arrive(self, spec: TransactionSpec) -> None:
        if spec.txn_id in self._active or spec.txn_id in self._committed_ids:
            raise ProtocolError(f"duplicate arrival of T{spec.txn_id}")
        self._active[spec.txn_id] = spec
        self.counters.incr("arrivals")
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn_start",
                self.sim.now,
                spec.txn_id,
                data={
                    "deadline": spec.deadline,
                    "steps": len(spec.steps),
                    "class": spec.txn_class.name,
                },
            )
        self.protocol.on_arrival(spec)

    # ------------------------------------------------------------------
    # Transaction Sink
    # ------------------------------------------------------------------

    def commit(self, execution: Execution) -> None:
        """Install the committing execution's writes and record the commit.

        Raises:
            InvariantViolation: If the execution holds a stale read — no
                protocol in this library may commit stale data.
        """
        txn = execution.txn
        txn_id = txn.txn_id
        if txn_id in self._committed_ids:
            raise ProtocolError(f"T{txn_id} committed twice")
        if txn_id not in self._active:
            raise ProtocolError(f"T{txn_id} committed without arriving")
        db_version = self.db.version
        # The reads snapshot is only consumed by the serializability
        # oracle; build it inside the validation pass so history-off runs
        # (the benchmark configuration) skip it without a second pass.
        reads: Optional[dict[int, int]] = {} if self.history is not None else None
        for page, record in execution.readset.items():
            current = db_version(page)
            if record.version != current:
                raise InvariantViolation(
                    f"T{txn_id} committing a stale read of page {page}: "
                    f"read v{record.version}, current v{current}"
                )
            if reads is not None:
                reads[page] = record.version
        batch = {page: txn_id for page in execution.writeset}
        self.db.install(batch, writer=txn_id)
        if self.history is not None:
            writes = {page: db_version(page) for page in execution.writeset}
            self.history.record(txn_id, self.sim.now, reads, writes)
        now = self.sim.now
        self.metrics.record_commit(txn, now, execution.work)
        self._committed_ids.add(txn_id)
        del self._active[txn_id]
        counters = self.counters
        counters.incr("commits")
        missed = now > txn.deadline
        if missed:
            counters.incr("deadline_misses")
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "commit",
                now,
                txn_id,
                serial=execution.serial,
                mode=execution_mode(execution),
                pos=execution.pos,
            )
            if missed:
                tracer.emit(
                    "deadline_miss",
                    now,
                    txn_id,
                    data={"tardiness": now - txn.deadline},
                )

    def record_execution_abort(self, execution: Execution) -> None:
        """Account an aborted execution's service time as wasted work."""
        self.metrics.record_shadow_abort(execution.work)
        self.counters.incr("aborts")
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "abort",
                self.sim.now,
                execution.txn.txn_id,
                serial=execution.serial,
                mode=execution_mode(execution),
                pos=execution.pos,
                data={"work": execution.work},
            )

    def record_restart(self, txn: TransactionSpec) -> None:
        """Account a full transaction restart."""
        self.metrics.record_restart(txn)
        self.counters.incr("restarts")
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("restart", self.sim.now, txn.txn_id)

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------

    @property
    def active_transactions(self) -> list[TransactionSpec]:
        """Transactions that arrived but have not committed."""
        return list(self._active.values())

    def is_active(self, txn_id: int) -> bool:
        """Whether a transaction has arrived and not yet committed."""
        return txn_id in self._active

    @property
    def committed_count(self) -> int:
        """Number of committed transactions so far."""
        return len(self._committed_ids)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run the simulation until the event queue drains.

        Under soft deadlines every submitted transaction must eventually
        commit, so a drained queue with active transactions indicates a bug
        (a protocol lost a blocked execution) and raises.
        """
        self.sim.run(max_events=max_events)
        if max_events is None and self._active:
            stuck = sorted(self._active)
            raise InvariantViolation(
                f"simulation drained with {len(stuck)} live transactions: "
                f"{stuck[:10]}"
            )

    def close(self) -> None:
        """Break the run's reference cycles so reference counting frees it.

        Queued events and the protocol's ``bind`` handles point back at
        the system.  Call once the results are read; it cannot run again.
        """
        self.sim.clear()
        self.protocol.unbind()
