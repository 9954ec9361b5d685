"""The gateway application core: experiments as a multi-tenant service.

:class:`GatewayApp` is the HTTP-free heart of ``repro serve``.  It wires
the existing platform pieces into one long-running service:

* **Validation** — submissions are plain
  :class:`~repro.experiments.spec.ExperimentSpec` JSON, validated by the
  spec layer itself (`from_dict` / `to_config` /
  :func:`~repro.experiments.runner.normalize_protocols`), so the wire
  format is exactly the artifact ``repro run`` executes.
* **Job board** — every fresh cell is enqueued onto the PR 8 SQLite
  :class:`~repro.experiments.distributed.JobBoard` (one board per
  gateway, in ``workdir``), giving claims, leases, and durable queue
  state that survives a drain.  Each board payload carries the
  submitting client and the full experiment spec, so a replacement
  instance started on the same ``workdir`` *adopts* orphaned cells at
  startup: they re-register under their original experiment ids and run
  to completion instead of rotting on the board.
* **Dedup by fingerprint** — a submitted cell whose
  :func:`~repro.results.fingerprint.cell_fingerprint` is already in the
  shared run store is served from it immediately (``cached=true`` on the
  event stream), and a cell another experiment is *currently computing*
  is never enqueued twice: the second experiment subscribes to the
  in-flight cell and receives the same outcome when it lands.
* **Workers** — a small pool of in-process worker threads mirrors the
  distributed executor's host loop (claim from the board, compute via
  the executor layer's cell primitive
  :func:`~repro.experiments.parallel._execute_cell`, mark the board)
  against the shared store.  Worker failures feed the
  :class:`~repro.gateway.breaker.CircuitBreaker`, which parks a
  repeatedly failing worker — permanently by default, or until the
  breaker's half-open probe when built with ``cooldown_seconds``;
  failed cells degrade their experiments to ``partial`` status instead
  of failing the sweep.
* **Quotas** — :class:`~repro.gateway.quotas.ClientQuotas` admission
  control per ``X-Client``.  Only what a submission charged is
  released; experiments adopted from a persisted board were charged by
  the instance that accepted them.
* **Events** — every running experiment owns a
  :class:`~repro.telemetry.bus.EventBus` whose
  ``cell_started``/``cell_completed``/``cell_outcome`` payloads are
  byte-for-byte the stream ``run_sweep(on_event=...)`` publishes,
  framed by gateway markers (``experiment_accepted`` /
  ``experiment_done`` / ``experiment_interrupted``).  Each event is
  stored once, encoded as its NDJSON line when it is published.

Threading model: HTTP handlers (one server thread per connection) call
``submit``/``status``/``wait_events``; worker threads complete cells.
The registry lock serializes both sides; per-experiment conditions let
streams block without holding the registry.  An experiment that ends
``done`` or ``partial`` drops its config, protocol specs and bus and
keeps what its status, event lines and results read; an
``interrupted`` one keeps everything, since a worker that outlives the
drain may still complete its cell.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from collections import deque
from dataclasses import asdict
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.distributed import JobBoard
from repro.experiments.parallel import (
    CellError,
    CellOutcome,
    ProgressEvent,
    SweepCell,
    _eta,
    _execute_cell,
)
from repro.experiments.runner import (
    build_cells,
    normalize_protocols,
    run_instrumented,
)
from repro.experiments.spec import ExperimentSpec
from repro.gateway.breaker import CircuitBreaker
from repro.gateway.quotas import ClientQuotas
from repro.protocols.registry import ProtocolSpec
from repro.results.backends import open_store
from repro.results.fingerprint import cell_fingerprint, config_payload
from repro.results.record import RunRecord
from repro.telemetry.bus import EventBus
from repro.telemetry.log import get_logger

__all__ = [
    "EXPERIMENT_STATES",
    "GatewayApp",
    "GatewayDraining",
    "UnknownExperiment",
]

_log = get_logger("gateway")

#: Lifecycle of one gateway experiment.  ``running`` -> ``done`` (every
#: cell ok) / ``partial`` (some cells failed; the breaker's degraded
#: mode) / ``interrupted`` (the gateway drained before completion).
EXPERIMENT_STATES = ("running", "done", "partial", "interrupted")

#: Event stream markers the gateway adds around the run_sweep-shaped
#: per-cell events.
GATEWAY_MARKERS = (
    "experiment_accepted",
    "experiment_done",
    "experiment_interrupted",
    "experiment_recovered",
)

#: Terminal experiments the registry keeps.  Past this, the one that
#: finished earliest is forgotten and its id answers like an unknown
#: one (404); running experiments are never evicted.
MAX_FINISHED_EXPERIMENTS = 1024


class GatewayDraining(ReproError):
    """The gateway is draining (SIGTERM received); submissions are rejected."""


class UnknownExperiment(ReproError):
    """No experiment with the requested id exists on this gateway."""

    def __init__(self, experiment_id: str) -> None:
        super().__init__(f"unknown experiment {experiment_id!r}")
        self.experiment_id = experiment_id


class _Worker:
    """One worker thread's observable state."""

    __slots__ = ("id", "state", "cell", "thread")

    def __init__(self, worker_id: str) -> None:
        self.id = worker_id
        self.state = "idle"  # idle | busy | parked | stopped
        self.cell: Optional[str] = None
        self.thread: Optional[threading.Thread] = None


class ExperimentState:
    """Bookkeeping for one submitted experiment.

    Holds the per-cell fingerprints in cell order, the event stream as
    encoded NDJSON lines, and completion counters.  While it runs it
    also holds what its cells run on (the config, the
    :class:`~repro.protocols.registry.ProtocolSpec` of each label, the
    event bus); a ``done`` or ``partial`` experiment drops them.  All
    mutation happens under ``cond`` (an RLock condition, so bus
    subscribers re-entering is safe); the event stream endpoint waits on
    ``cond`` for new lines.

    Args:
        experiment_id: The experiment's id.
        client: The submitting client (the quota key).
        scenario: The spec's scenario name (``None`` for none).
        config: The resolved experiment config.
        specs: Protocol label -> spec, in roster order.
        fingerprints: Each cell's fingerprint, in cell order.
        charged: Whether the client's quota was charged for it
            (recovered experiments are not).
    """

    def __init__(
        self,
        experiment_id: str,
        client: str,
        scenario: Optional[str],
        config,
        specs: Dict[str, ProtocolSpec],
        fingerprints: List[str],
        charged: bool,
    ) -> None:
        self.id = experiment_id
        self.client = client
        self.config = config
        self.scenario = scenario
        self.specs: Optional[Dict[str, ProtocolSpec]] = specs
        self.protocols = tuple(specs)
        self.fingerprints = fingerprints
        self.charged = charged
        self.total = len(fingerprints)
        self.done = 0
        self.failed: List[dict] = []
        self.cached = 0
        self.shared = 0
        self.enqueued = 0
        self.status = "running"
        self.created_unix = time.time()
        self.started = time.monotonic()
        #: the event stream, each event encoded once as it is published
        self.lines: List[bytes] = []
        self.cond = threading.Condition(threading.RLock())
        self.bus: Optional[EventBus] = EventBus()
        self.bus.subscribe(self._collect)

    # -- event publication ---------------------------------------------

    def _collect(self, event) -> None:
        # Bus subscriber: publishers below already hold ``cond`` (RLock).
        self._append(event.to_dict())

    def _append(self, payload: dict) -> None:
        # Caller holds ``cond``.
        self.lines.append((json.dumps(payload, sort_keys=True) + "\n").encode())
        self.cond.notify_all()

    def publish_marker(self, payload: dict) -> None:
        """Append one gateway marker line to the event stream."""
        with self.cond:
            self._append(payload)

    def publish_started(self, cell: SweepCell) -> None:
        """Publish the ``cell_started`` tick for a cell a worker claimed."""
        with self.cond:
            if self.status != "running":
                return
            self.bus.publish_progress(
                ProgressEvent(
                    kind="started",
                    cell=cell,
                    completed=self.done,
                    total=self.total,
                    elapsed=time.monotonic() - self.started,
                    eta=None,
                )
            )

    def publish_lifecycle(self, kind: str, payload: dict) -> None:
        """Publish one worker-fleet lifecycle event onto this stream."""
        with self.cond:
            if self.status != "running":
                return
            self.bus.publish_lifecycle(kind, payload)

    def deliver(self, outcome: CellOutcome, cached: bool) -> bool:
        """Record one materialized outcome; returns whether this finished it.

        Publishes the same ``cell_completed`` + ``cell_outcome`` pair
        ``run_sweep`` would, then finalizes the experiment when the last
        cell lands (``done`` if every cell succeeded, ``partial``
        otherwise — the gateway never fails a whole sweep).
        """
        with self.cond:
            if self.status != "running":
                return False
            self.done += 1
            if not outcome.ok:
                self.failed.append(
                    {
                        "protocol": outcome.cell.protocol,
                        "arrival_rate": outcome.cell.arrival_rate,
                        "replication": outcome.cell.replication,
                        "error": {
                            "type": outcome.error.exc_type,
                            "message": outcome.error.message,
                        },
                    }
                )
            elapsed = time.monotonic() - self.started
            self.bus.publish_progress(
                ProgressEvent(
                    kind="completed",
                    cell=outcome.cell,
                    completed=self.done,
                    total=self.total,
                    elapsed=elapsed,
                    eta=_eta(self.done, self.total, elapsed),
                    ok=outcome.ok,
                )
            )
            self.bus.publish_outcome(outcome, cached=cached)
            if self.done >= self.total:
                self._finalize()
                return True
            return False

    def _finalize(self) -> None:
        # Caller holds ``cond``.
        self.status = "partial" if self.failed else "done"
        self._append(
            {
                "kind": "experiment_done",
                "experiment": self.id,
                "status": self.status,
                "total": self.total,
                "completed": self.done,
                "failed": len(self.failed),
            }
        )
        # Every cell has landed: nothing will run on these again.  An
        # interrupted experiment keeps them, since a worker that outlives
        # the drain may still complete its cell.
        self.config = self.specs = self.bus = None

    def interrupt(self) -> bool:
        """Mark a still-running experiment interrupted (gateway drain)."""
        with self.cond:
            if self.status != "running":
                return False
            self.status = "interrupted"
            self._append(
                {
                    "kind": "experiment_interrupted",
                    "experiment": self.id,
                    "total": self.total,
                    "completed": self.done,
                    "failed": len(self.failed),
                }
            )
            return True

    # -- introspection --------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready status of this experiment."""
        with self.cond:
            return {
                "id": self.id,
                "client": self.client,
                "status": self.status,
                "scenario": self.scenario,
                "protocols": list(self.protocols),
                "total_cells": self.total,
                "completed": self.done,
                "failed": list(self.failed),
                "cached_cells": self.cached,
                "shared_cells": self.shared,
                "enqueued_cells": self.enqueued,
                "created_unix": self.created_unix,
                "events": len(self.lines),
            }

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the experiment reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while self.status == "running":
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self.cond.wait(remaining)
            return self.status


class GatewayApp:
    """The experiment gateway: validate, dedup, enqueue, execute, stream.

    Args:
        store: Shared run store path (or an open
            :class:`~repro.results.store.BaseRunStore`); every completed
            cell is appended here exactly once, whichever client asked
            for it.
        store_backend: Optional backend name forcing how a path-given
            ``store`` opens (see
            :func:`~repro.results.backends.open_store`).
        workers: Worker-thread pool size.
        workdir: Directory for the gateway's job board; ``None`` creates
            a private temp dir (removed by :meth:`close`).  A
            caller-supplied workdir is kept, so the board's queue state
            survives a drain — and a new app on the same workdir adopts
            any cells a previous instance left pending (they re-register
            under their original experiment ids and execute normally).
        quotas: Admission control; defaults to a permissive
            :class:`~repro.gateway.quotas.ClientQuotas`.
        breaker: Worker circuit breaker; defaults to parking a worker
            after 3 consecutive failures, permanently.  A breaker built
            with ``cooldown_seconds`` parks *temporarily* instead: the
            parked worker keeps polling and wakes for the breaker's
            half-open probe claim once the cooldown elapses.
        poll_seconds: Worker idle-claim poll interval.
        lease_seconds: Board lease stamped on claims.  Gateway workers
            are threads (they cannot vanish silently), so leases exist
            for board-state introspection rather than failover.
        fault_hook: Test seam called in the worker as ``hook(cell)``
            right before a cell runs; raising fails the cell.
    """

    def __init__(
        self,
        store,
        store_backend: Optional[str] = None,
        workers: int = 2,
        workdir: "str | os.PathLike | None" = None,
        quotas: Optional[ClientQuotas] = None,
        breaker: Optional[CircuitBreaker] = None,
        poll_seconds: float = 0.05,
        lease_seconds: float = 300.0,
        fault_hook: Optional[Callable[[SweepCell], None]] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"gateway needs workers >= 1, got {workers}")
        self._store = open_store(store, backend=store_backend)
        self._store_lock = threading.Lock()
        self._owns_workdir = workdir is None
        self.workdir = (
            tempfile.mkdtemp(prefix="repro-gateway-")
            if workdir is None
            else os.fspath(workdir)
        )
        os.makedirs(self.workdir, exist_ok=True)
        self.board_path = os.path.join(self.workdir, "board.sqlite")
        # The parent connection serves submissions and health checks from
        # whichever thread the server runs them on; the registry lock
        # serializes access.  Workers open their own connections.
        self._board = JobBoard(self.board_path, cross_thread=True)
        self._next_index = self._board.max_index() + 1
        self.quotas = quotas if quotas is not None else ClientQuotas()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.poll_seconds = poll_seconds
        self.lease_seconds = lease_seconds
        self._fault_hook = fault_hook
        self._lock = threading.RLock()
        self._experiments: Dict[str, ExperimentState] = {}
        #: terminal experiment ids, earliest finished first
        self._finished: Deque[str] = deque()
        #: board idx -> (experiment, cell, fingerprint) for queued/running cells
        self._cells: Dict[int, Tuple[ExperimentState, SweepCell, str]] = {}
        #: fingerprint -> waiting (experiment, cell) pairs for in-flight dedup
        self._inflight: Dict[str, List[Tuple[ExperimentState, SweepCell]]] = {}
        self._draining = False
        self._closed = False
        self._stop = threading.Event()
        # Adopt whatever a previous instance left on a persisted board
        # *before* any worker starts claiming, so no claim can ever find
        # a cell with no registered owner.
        self._recover_orphans()
        self._workers: List[_Worker] = []
        for i in range(workers):
            worker = _Worker(f"gw-{i}")
            worker.thread = threading.Thread(
                target=self._worker_loop, args=(worker,),
                name=f"gateway-{worker.id}", daemon=True,
            )
            self._workers.append(worker)
        for worker in self._workers:
            worker.thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, payload, client: str = "anonymous") -> dict:
        """Validate, deduplicate, and enqueue one experiment.

        Args:
            payload: An :class:`~repro.experiments.spec.ExperimentSpec`
                or its dict/JSON form.  The spec's *execution policy*
                fields (``store``/``store_backend``/``executor``/
                ``workers``/``telemetry``) are ignored — the gateway owns
                execution.
            client: The quota key (the ``X-Client`` header upstream).

        Returns:
            The experiment's status dict (see
            :meth:`ExperimentState.describe`).

        Raises:
            GatewayDraining: The gateway is shutting down (HTTP 503).
            QuotaExceeded: The client tripped an admission gate (429).
            ConfigurationError: The spec is malformed (400).
        """
        spec = (
            payload
            if isinstance(payload, ExperimentSpec)
            else ExperimentSpec.from_dict(payload)
        )
        config = spec.to_config()
        specs = normalize_protocols(spec.protocols)
        # Refuse a hopeless grid before building or fingerprinting it.
        # Cells have distinct fingerprints, and each stored or in-flight
        # one can spare at most one of them, so this bounds the fresh
        # cells from below.
        with self._store_lock:
            stored = len(self._store)
        with self._lock:
            inflight = len(self._inflight)
        grid = len(specs) * len(set(config.arrival_rates)) * config.replications
        self.quotas.refuse_oversized(client, grid - stored - inflight)
        cells = build_cells(
            list(specs), tuple(config.arrival_rates), config.replications
        )
        cfg_payload = config_payload(config)
        fingerprints = [
            cell_fingerprint(
                cfg_payload,
                specs[cell.protocol],
                cell.arrival_rate,
                cell.replication,
            )
            for cell in cells
        ]
        exp = ExperimentState(
            experiment_id=uuid.uuid4().hex[:12],
            client=client,
            scenario=spec.scenario_name(),
            config=config,
            specs=specs,
            fingerprints=fingerprints,
            charged=True,
        )
        with self._lock:
            if self._draining or self._closed:
                raise GatewayDraining(
                    "gateway is draining; resubmit to the replacement instance"
                )
            cached: Dict[int, RunRecord] = {}
            shared: List[Tuple[SweepCell, str]] = []
            fresh: List[Tuple[SweepCell, str]] = []
            for cell, fingerprint in zip(cells, fingerprints):
                with self._store_lock:
                    record = self._store.get(fingerprint)
                if record is not None:
                    cached[cell.index] = record
                elif fingerprint in self._inflight:
                    shared.append((cell, fingerprint))
                else:
                    fresh.append((cell, fingerprint))
            # Admission: all gates checked before any state changes, so a
            # 429 leaves the gateway exactly as it was.
            self.quotas.admit(client, len(fresh))
            exp.cached = len(cached)
            exp.shared = len(shared)
            exp.enqueued = len(fresh)
            self._experiments[exp.id] = exp
            exp.publish_marker(
                {
                    "kind": "experiment_accepted",
                    "experiment": exp.id,
                    "client": client,
                    "total": exp.total,
                    "cached": exp.cached,
                    "shared": exp.shared,
                    "enqueued": exp.enqueued,
                }
            )
            for cell, fingerprint in shared:
                self._inflight[fingerprint].append((exp, cell))
            for cell, fingerprint in fresh:
                index = self._next_index
                self._next_index += 1
                self._cells[index] = (exp, cell, fingerprint)
                self._inflight[fingerprint] = []
                # client + spec make the payload self-contained: a
                # replacement instance can rebuild the experiment from
                # the board alone (see _recover_orphans).
                self._board.add(
                    index,
                    {
                        "experiment": exp.id,
                        "client": client,
                        "fingerprint": fingerprint,
                        "cell": asdict(cell),
                        "spec": spec.to_dict(),
                    },
                )
            # Replay store-cached cells up front, exactly as run_sweep
            # surfaces them before the executor starts.
            finished = exp.total == 0
            for cell in cells:
                record = cached.get(cell.index)
                if record is None:
                    continue
                outcome = CellOutcome(
                    cell=cell,
                    summary=record.summary,
                    error=None,
                    elapsed=record.elapsed,
                    telemetry=record.telemetry,
                )
                if exp.deliver(outcome, cached=True):
                    finished = True
            if finished:
                with exp.cond:
                    if exp.status == "running":
                        exp._finalize()
                self._experiment_finished(exp)
        _log.info(
            "experiment %s accepted from %s: %d cell(s) "
            "(%d cached, %d shared, %d enqueued)",
            exp.id, client, exp.total, exp.cached, exp.shared, exp.enqueued,
        )
        return exp.describe()

    # ------------------------------------------------------------------
    # board recovery
    # ------------------------------------------------------------------

    def _recover_orphans(self) -> None:
        """Adopt cells a dead instance left behind on a persisted board.

        A gateway drained (or killed) with queued work leaves those
        cells ``pending`` — or ``claimed`` under a lease nobody will
        ever extend, since gateway workers are threads of the dead
        process — on the board file.  Runs once at startup, before the
        worker pool exists: every orphan's payload carries its client
        and the full experiment spec, so the cells re-register in
        ``self._cells`` under their original experiment ids, visible in
        ``GET /experiments`` and executed exactly like fresh work.
        Recovered experiments are not charged against quotas (the
        instance that accepted them already admitted them).  A payload
        that cannot be rebuilt — undecodable JSON, a row that is not an
        object, schema drift, a pre-recovery board format without the
        spec — is marked ``failed`` with a log line rather than retried
        forever (or stopping the gateway from starting); the other
        orphans are still adopted.
        """
        for index in sorted(self._board.indexes_in_state("claimed")):
            self._board.requeue(index)
        grouped: Dict[str, List[Tuple[int, dict]]] = {}
        for index in sorted(self._board.indexes_in_state("pending")):
            try:
                payload = self._board.payload(index)
                experiment_id = str(payload.get("experiment"))
            except (ValueError, AttributeError) as exc:
                self._board.fail(index)
                _log.warning(
                    "dropping orphaned cell %d: board payload cannot be "
                    "decoded (%s)", index, exc,
                )
                continue
            grouped.setdefault(experiment_id, []).append((index, payload))
        for experiment_id, entries in grouped.items():
            try:
                first = entries[0][1]
                spec = ExperimentSpec.from_dict(first["spec"])
                client = str(first.get("client", "recovered"))
                config = spec.to_config()
                specs = normalize_protocols(spec.protocols)
                cells = [
                    SweepCell(**payload["cell"]) for _, payload in entries
                ]
                fingerprints = [
                    str(payload["fingerprint"]) for _, payload in entries
                ]
            except Exception as exc:  # noqa: BLE001 - damaged payloads: drop
                for index, _payload in entries:
                    self._board.fail(index)
                _log.warning(
                    "dropping %d orphaned cell(s) of experiment %s: "
                    "board payload cannot be rebuilt (%s)",
                    len(entries), experiment_id, exc,
                )
                continue
            exp = ExperimentState(
                experiment_id=experiment_id,
                client=client,
                scenario=spec.scenario_name(),
                config=config,
                specs=specs,
                fingerprints=fingerprints,
                charged=False,
            )
            exp.enqueued = exp.total
            self._experiments[exp.id] = exp
            for (index, _payload), cell, fingerprint in zip(
                entries, cells, fingerprints
            ):
                self._cells[index] = (exp, cell, fingerprint)
                self._inflight[fingerprint] = []
            exp.publish_marker(
                {
                    "kind": "experiment_recovered",
                    "experiment": exp.id,
                    "client": client,
                    "total": exp.total,
                    "enqueued": exp.total,
                }
            )
            _log.info(
                "adopted experiment %s from the persisted board: "
                "%d pending cell(s) re-registered for client %s",
                exp.id, exp.total, client,
            )

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------

    def _runner(self, exp: ExperimentState) -> Callable:
        def run(cell: SweepCell):
            if self._fault_hook is not None:
                self._fault_hook(cell)
            return run_instrumented(
                exp.specs[cell.protocol],
                exp.config,
                arrival_rate=cell.arrival_rate,
                replication=cell.replication,
            )

        return run

    def _worker_loop(self, worker: _Worker) -> None:
        board = JobBoard(self.board_path)
        try:
            while True:
                if self._stop.is_set():
                    worker.state = "stopped"
                    return
                if not self.breaker.allow(worker.id):
                    if self.breaker.cooldown_seconds is None:
                        # No recovery configured: park permanently.
                        self._park(worker)
                        return
                    # A cooldown breaker half-opens on its own, so park
                    # in place and keep polling: allow() grants the
                    # probe claim once the cooldown elapses.
                    if worker.state != "parked":
                        self._park(worker)
                    if self._stop.wait(self.poll_seconds):
                        worker.state = "stopped"
                        return
                    continue
                if worker.state == "parked":
                    worker.state = "idle"
                    _log.info(
                        "worker %s unparked for a half-open probe", worker.id
                    )
                    # Same kind the distributed executor emits when a
                    # replacement host spawns: the fleet regained a worker.
                    self._broadcast_lifecycle(
                        "worker_started",
                        {"worker": worker.id, "recovered": True},
                    )
                claimed = board.claim_payload(worker.id, self.lease_seconds)
                if claimed is None:
                    time.sleep(self.poll_seconds)
                    continue
                index, payload, _attempt = claimed
                with self._lock:
                    entry = self._cells.get(index)
                if entry is None:
                    # Registered state is gone (drain raced the claim);
                    # leave the cell pending for a future instance, with
                    # a backoff so a miss can never busy-spin the board.
                    board.requeue(
                        index, not_before=time.time() + self.poll_seconds
                    )
                    time.sleep(self.poll_seconds)
                    continue
                exp, cell, fingerprint = entry
                worker.state = "busy"
                worker.cell = cell.describe()
                exp.publish_started(cell)
                outcome = _execute_cell(cell, self._runner(exp))
                self._complete_cell(board, worker, index, outcome)
                worker.state = "idle"
                worker.cell = None
        finally:
            board.close()

    def _complete_cell(
        self, board: JobBoard, worker: _Worker, index: int, outcome: CellOutcome
    ) -> None:
        with self._lock:
            entry = self._cells.get(index)
        if entry is None:
            return
        exp, cell, fingerprint = entry
        if outcome.ok:
            record = RunRecord.from_outcome(
                exp.config,
                outcome,
                exp.specs[cell.protocol],
                scenario=exp.scenario,
                config_payload_dict=config_payload(exp.config),
            )
            with self._store_lock:
                self._store.append(record)
            board.complete(index)
            self.breaker.record_success(worker.id)
        else:
            board.fail(index)
            if self.breaker.record_failure(worker.id):
                _log.warning(
                    "worker %s tripped the circuit breaker "
                    "(%d consecutive failures)",
                    worker.id, self.breaker.failure_threshold,
                )
        self._resolve(index, outcome)

    def _resolve(self, index: int, outcome: CellOutcome) -> None:
        """Deliver one outcome to its owner and every deduplicated waiter."""
        with self._lock:
            entry = self._cells.pop(index, None)
            if entry is None:
                return
            exp, cell, fingerprint = entry
            waiters = self._inflight.pop(fingerprint, [])
        if exp.deliver(outcome, cached=False):
            self._experiment_finished(exp)
        if exp.charged:
            self.quotas.cell_finished(exp.client)
        for waiter_exp, waiter_cell in waiters:
            waiter_outcome = CellOutcome(
                cell=waiter_cell,
                summary=outcome.summary,
                error=outcome.error,
                elapsed=outcome.elapsed,
                telemetry=outcome.telemetry,
            )
            # A successful shared cell is a dedup hit (cached=true on the
            # waiter's stream); a failed one is just a failure.
            if waiter_exp.deliver(waiter_outcome, cached=outcome.ok):
                self._experiment_finished(waiter_exp)

    def _experiment_finished(self, exp: ExperimentState) -> None:
        """Release a terminal experiment's quota slot; bound the registry.

        Only a charged experiment releases one: a recovered experiment
        was charged by the instance that accepted it.  Keeps the last
        :data:`MAX_FINISHED_EXPERIMENTS` terminal experiments and forgets
        the one that finished earliest.
        """
        if exp.charged:
            self.quotas.experiment_finished(exp.client)
        with self._lock:
            self._finished.append(exp.id)
            while len(self._finished) > MAX_FINISHED_EXPERIMENTS:
                del self._experiments[self._finished.popleft()]

    def _broadcast_lifecycle(self, kind: str, payload: dict) -> None:
        """Publish one worker-fleet event onto every running experiment."""
        with self._lock:
            running = [
                exp
                for exp in self._experiments.values()
                if exp.status == "running"
            ]
        for exp in running:
            exp.publish_lifecycle(kind, payload)

    def _park(self, worker: _Worker) -> None:
        worker.state = "parked"
        worker.cell = None
        permanent = self.breaker.cooldown_seconds is None
        _log.warning(
            "worker %s parked by the circuit breaker%s",
            worker.id,
            "" if permanent else (
                f" (half-open probe after "
                f"{self.breaker.cooldown_seconds:g}s)"
            ),
        )
        payload = {"worker": worker.id, "parked": True}
        if not permanent:
            payload["cooldown_seconds"] = self.breaker.cooldown_seconds
        self._broadcast_lifecycle("worker_lost", payload)
        # A cooldown breaker recovers on its own, so queued cells keep
        # waiting; only a permanent park can strand the queue for good.
        if permanent:
            self._degrade_if_dead()

    def _degrade_if_dead(self) -> None:
        """Fail every queued cell once no worker can ever run it again.

        Called when a worker parks: if the whole pool is parked (or
        stopped) the queue would otherwise hang forever, so each pending
        cell resolves to a synthetic error outcome and its experiments
        finalize as ``partial`` — degraded, never hung.
        """
        with self._lock:
            if self._draining:
                return
            if any(w.state in ("idle", "busy") for w in self._workers):
                return
            pending = list(self._cells.keys())
        for index in pending:
            with self._lock:
                entry = self._cells.get(index)
                if entry is not None:
                    self._board.fail(index)
            if entry is None:
                continue
            _exp, cell, _fingerprint = entry
            self._resolve(
                index,
                CellOutcome(
                    cell=cell,
                    summary=None,
                    error=CellError(
                        exc_type="GatewayDegraded",
                        message=(
                            "every gateway worker is parked by the circuit "
                            "breaker; cell abandoned"
                        ),
                        traceback="",
                    ),
                    elapsed=0.0,
                ),
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _get(self, experiment_id: str) -> ExperimentState:
        with self._lock:
            exp = self._experiments.get(experiment_id)
        if exp is None:
            raise UnknownExperiment(experiment_id)
        return exp

    def status(self, experiment_id: str) -> dict:
        """The status dict of one experiment (404 seam: raises on unknown id)."""
        return self._get(experiment_id).describe()

    def list_experiments(self) -> List[dict]:
        """Status dicts of every registered experiment, oldest first.

        That is every running experiment plus the last
        :data:`MAX_FINISHED_EXPERIMENTS` that finished.
        """
        with self._lock:
            experiments = list(self._experiments.values())
        return [exp.describe() for exp in experiments]

    def wait_events(
        self, experiment_id: str, cursor: int, timeout: Optional[float]
    ) -> Tuple[List[bytes], bool]:
        """Event lines past ``cursor`` plus whether the stream is complete.

        Each event is one NDJSON line (``json.dumps(event,
        sort_keys=True) + "\\n"``, UTF-8), encoded once when it was
        published.  With nothing past ``cursor`` on a running experiment,
        waits up to ``timeout`` seconds (``None``: no limit; ``0``: not
        at all) for news.  ``done=True`` means no further events will
        ever arrive: the experiment is terminal, or the gateway has
        closed.
        """
        exp = self._get(experiment_id)
        with exp.cond:
            if cursor >= len(exp.lines) and exp.status == "running":
                exp.cond.wait(timeout)
            lines = exp.lines[cursor:]
            done = exp.status != "running" or self._closed
        return lines, done

    def results(self, experiment_id: str) -> List[dict]:
        """Stored run-record dicts for the experiment's cells, in cell order."""
        exp = self._get(experiment_id)
        records = []
        for fingerprint in exp.fingerprints:
            with self._store_lock:
                record = self._store.get(fingerprint)
            if record is not None:
                records.append(record.to_dict())
        return records

    def health(self) -> dict:
        """JSON-ready service health: workers, breaker, quotas, board, store."""
        with self._lock:
            payload = {
                "status": "draining" if self._draining else "ok",
                "experiments": {
                    state: sum(
                        1
                        for exp in self._experiments.values()
                        if exp.status == state
                    )
                    for state in EXPERIMENT_STATES
                },
                "workers": {
                    worker.id: {"state": worker.state, "cell": worker.cell}
                    for worker in self._workers
                },
                "board": self._board.counts() if not self._closed else None,
                "breaker": self.breaker.snapshot(),
                "quotas": self.quotas.snapshot(),
            }
            # Same guard as the board: after drain() the listener keeps
            # serving health probes, but the store is closed.
            if self._closed:
                payload["store"] = None
            else:
                with self._store_lock:
                    payload["store"] = {
                        "path": str(self._store.path),
                        "backend": self._store.backend,
                        "records": len(self._store),
                    }
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether a drain is in progress (or complete)."""
        with self._lock:
            return self._draining

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: finish leased cells, persist, reject new work.

        Submissions raise :class:`GatewayDraining` (HTTP 503) from the
        moment the drain starts.  Worker threads finish the cell they
        hold — its outcome is appended to the store and marked on the
        board — then exit without claiming more; queued cells stay
        ``pending`` on the board file, which survives in ``workdir``,
        and a replacement instance started on the same workdir adopts
        them at startup (see :meth:`_recover_orphans`).  Experiments
        still incomplete after the drain are marked ``interrupted`` so
        their event streams terminate cleanly.
        """
        with self._lock:
            if self._closed:
                return
            already = self._draining
            self._draining = True
        if already:
            return
        _log.info("gateway draining: finishing leased cells")
        self._stop.set()
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(timeout)
            if worker.state not in ("parked",):
                worker.state = "stopped"
        with self._lock:
            running = [
                exp
                for exp in self._experiments.values()
                if exp.status == "running"
            ]
        for exp in running:
            if exp.interrupt():
                self._experiment_finished(exp)
        with self._lock:
            self._closed = True
            self._board.close()
            with self._store_lock:
                self._store.close()
        _log.info("gateway drained: board state persisted at %s", self.board_path)

    def close(self) -> None:
        """Drain and release resources (removes an app-owned temp workdir)."""
        self.drain()
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)
