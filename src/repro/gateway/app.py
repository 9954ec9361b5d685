"""The gateway application core: experiments as a multi-tenant service.

:class:`GatewayApp` is the HTTP-free heart of ``repro serve``.  It wires
the existing platform pieces into one long-running service:

* **Validation** — submissions are plain
  :class:`~repro.experiments.spec.ExperimentSpec` JSON, validated by the
  spec layer itself (`from_dict` / `to_config` /
  :func:`~repro.experiments.runner.normalize_protocols`), so the wire
  format is exactly the artifact ``repro run`` executes.
* **Job board** — every fresh cell is enqueued onto the SQLite
  :class:`~repro.experiments.board.JobBoard` (one board per
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
* **Hosts** — every fresh cell is computed on a forked board host
  running the ``--workers`` sweep's host loop
  (:func:`~repro.experiments.hosts.host_loop`): claim a row, compute it
  under a heartbeat, write the encoded outcome into the row.  A host
  builds a cell's config and protocol from the spec its row carries
  (once per experiment).  A *keeper* process, forked when the app is
  built, forks the hosts, reaps them and replaces lost ones
  (:func:`~repro.experiments.hosts.keep_hosts`), with the sweep's
  attempt ceiling and restart budget.  A cell that raises fails only
  itself: its experiment ends ``partial``, and the host goes on to the
  next cell, so one client's failing cells never stall another
  client's experiment.  A host that dies mid-cell has its cell
  recomputed on a replacement, or, after the attempt ceiling, failed as
  ``WorkerLost``.
* **The collector** — one thread of the app reads the rows the hosts
  finish, publishes each computed cell's ``cell_started`` /
  ``cell_completed`` / ``cell_outcome``, appends its record to the
  shared store (the app is the store's only writer) and resolves every
  experiment waiting on the cell.
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

Process and threading model: the app forks its keeper in its
constructor, while the process still has one thread and no SQLite
connection open; no thread of the app's process ever forks, and no cell
runs in it, so no cell holds its interpreter lock and it never imports
the simulation layer.  HTTP handlers (one server thread per connection)
call ``submit``/``status``/``wait_events``; the collector thread
completes cells.  The registry lock serializes both sides;
per-experiment conditions let streams block without holding the
registry.  The app holds the write end of a *lifeline* pipe that the
keeper and the hosts watch: a drain closes it, and so does the app's
death, so hosts never outlive their gateway by more than the cell in
hand.  An experiment that ends ``done`` or ``partial`` drops its config,
protocol specs and bus and keeps what its status, event lines and
results read; an ``interrupted`` one keeps everything, since a host that
outlives the drain may still complete its cell.
"""

from __future__ import annotations

import json
import os
import select
import tempfile
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro._record import asdict
from repro.errors import ReproError
from repro.experiments.board import (
    LEASE_SECONDS,
    MAX_ATTEMPTS,
    JobBoard,
    decode_outcome,
    lost_outcome,
)
from repro.experiments.forked import Forked
from repro.experiments.parallel import (
    CellOutcome,
    ProgressEvent,
    SweepCell,
    _eta,
)
from repro.experiments.runner import (
    build_cells,
    normalize_protocols,
    run_instrumented,
)
from repro.experiments.spec import ExperimentSpec
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
#: cell ok) / ``partial`` (some cells failed) / ``interrupted`` (the
#: gateway drained before completion).
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


#: How many experiments' configs and protocol specs a host keeps built.
HOST_BUILT_EXPERIMENTS = 8

#: Lifeline write ends this process holds, one per live app.
_LIFELINES: set = set()


def _drop_lifelines() -> None:
    # A forked child must not hold any app's lifeline open: that app's
    # hosts would never see it cut.
    for fd in _LIFELINES:
        os.close(fd)
    _LIFELINES.clear()


os.register_at_fork(after_in_child=_drop_lifelines)


def _keeper(
    board_path: str,
    cells: "_BoardCells",
    workers: int,
    lease_seconds: float,
    poll_seconds: float,
    lifeline: int,
    doorbell: int,
) -> None:
    """The keeper process: hold ``workers`` board hosts on the board.

    It waits for the app's one byte on the lifeline (the app is ready),
    so nothing it does competes with the app's own start-up, and returns
    if the lifeline is cut first.  The host machinery is imported here,
    after the fork, so the serving process never compiles it.
    """
    if not os.read(lifeline, 1):
        return
    from repro.experiments.hosts import host_loop, keep_hosts

    host = partial(
        host_loop,
        board_path,
        cells,
        lease_seconds,
        poll_seconds,
        until_empty=False,
        lifeline=lifeline,
        doorbell=doorbell,
    )
    keep_hosts(board_path, host, workers, MAX_ATTEMPTS, lifeline, poll_seconds)


class _BoardCells:
    """What a host makes of a gateway row: its cell, and how to run it.

    A row carries the cell, its experiment id and the experiment's full
    spec; the host builds the config and protocol specs from the spec
    the first time it meets the experiment, and keeps the last
    :data:`HOST_BUILT_EXPERIMENTS` built.  ``fault_hook(cell)`` runs
    first, inside the cell's fault isolation.
    """

    __slots__ = ("_fault_hook", "_built")

    def __init__(self, fault_hook: Optional[Callable[[SweepCell], None]]) -> None:
        self._fault_hook = fault_hook
        self._built: Dict[str, tuple] = {}

    def __call__(self, payload: Dict[str, Any]):
        return SweepCell(**payload["cell"]), partial(self._run, payload)

    def _run(self, payload: Dict[str, Any], cell: SweepCell):
        if self._fault_hook is not None:
            self._fault_hook(cell)
        config, specs = self._build(payload["experiment"], payload["spec"])
        return run_instrumented(
            specs[cell.protocol],
            config,
            arrival_rate=cell.arrival_rate,
            replication=cell.replication,
        )

    def _build(self, experiment_id: str, spec_dict: dict) -> tuple:
        built = self._built.pop(experiment_id, None)
        if built is None:
            spec = ExperimentSpec.from_dict(spec_dict)
            built = (spec.to_config(), normalize_protocols(spec.protocols))
        self._built[experiment_id] = built  # the newest last
        while len(self._built) > HOST_BUILT_EXPERIMENTS:
            del self._built[next(iter(self._built))]
        return built


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
        """Publish the ``cell_started`` tick of a cell a host computed."""
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
        # interrupted experiment keeps them, since a host that outlives
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
            for it.  Its connection is closed while the keeper is
            forked and reopens on the first append.
        store_backend: Optional backend name forcing how a path-given
            ``store`` opens (see
            :func:`~repro.results.backends.open_store`).
        workers: How many board hosts compute cells.
        workdir: Directory for the gateway's job board; ``None`` creates
            a private temp dir (removed by :meth:`close`).  A
            caller-supplied workdir is kept, so the board's queue state
            survives a drain — and a new app on the same workdir adopts
            any cells a previous instance left pending (they re-register
            under their original experiment ids and execute normally).
        quotas: Admission control; defaults to a permissive
            :class:`~repro.gateway.quotas.ClientQuotas`.
        poll_seconds: How often an idle host claims, the keeper reaps,
            and the collector reads the board without being woken.
        lease_seconds: Board lease stamped on claims; a host that stops
            heartbeating (wedged) loses its cell after this long.  A
            host that dies loses it as soon as the keeper reaps it.
        fault_hook: Test seam called in the host as ``hook(cell)`` right
            before a cell runs; raising fails the cell, and killing the
            host loses it.

    The app forks its keeper while it is built: build it in a process
    that has one thread, before starting any other.
    """

    def __init__(
        self,
        store,
        store_backend: Optional[str] = None,
        workers: int = 2,
        workdir: "str | os.PathLike | None" = None,
        quotas: Optional[ClientQuotas] = None,
        poll_seconds: float = 0.05,
        lease_seconds: float = LEASE_SECONDS,
        fault_hook: Optional[Callable[[SweepCell], None]] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"gateway needs workers >= 1, got {workers}")
        self._owns_workdir = workdir is None
        self.workdir = (
            tempfile.mkdtemp(prefix="repro-gateway-")
            if workdir is None
            else os.fspath(workdir)
        )
        os.makedirs(self.workdir, exist_ok=True)
        self.board_path = os.path.join(self.workdir, "board.sqlite")
        self.quotas = quotas if quotas is not None else ClientQuotas()
        self.poll_seconds = poll_seconds
        self.lease_seconds = lease_seconds
        self._lock = threading.RLock()
        self._store_lock = threading.Lock()
        self._experiments: Dict[str, ExperimentState] = {}
        #: terminal experiment ids, earliest finished first
        self._finished: Deque[str] = deque()
        #: board idx -> (experiment, cell, fingerprint) for queued/running cells
        self._cells: Dict[int, Tuple[ExperimentState, SweepCell, str]] = {}
        #: fingerprint -> waiting (experiment, cell) pairs for in-flight dedup
        self._inflight: Dict[str, List[Tuple[ExperimentState, SweepCell]]] = {}
        self._draining = False
        #: the drain is over: event streams end, nothing more is admitted
        self._closed = False
        #: the board and the store are closed (the collector's last act)
        self._released = False
        self._store = open_store(store, backend=store_backend)
        # Fork the keeper with no SQLite connection open: the store's
        # reopens on its first append (its loaded index stays), and the
        # board's opens after the fork.  The store loads before it, since
        # after it this process copies each memory page it first writes,
        # which the keeper shares until then.
        self._store.close()
        self._start_keeper(workers, _BoardCells(fault_hook))
        try:
            # The app's connection serves submissions, health checks and
            # the collector from whichever thread runs them; the registry
            # lock serializes access.  Hosts open their own.
            self._board = JobBoard(self.board_path, cross_thread=True)
            self._next_index = self._board.max_index() + 1
            # Adopt whatever a previous instance left on a persisted
            # board before the keeper starts a host (below), so no claim
            # can ever find a cell with no registered owner.
            self._recover_orphans(self._board)
            self._board.forget_hosts()
            stamp = self._board.last_stamp()
        except BaseException:
            self._stop_keeper()
            raise
        self._collector = threading.Thread(
            target=self._collect, args=(stamp,), name="gateway-collector",
            daemon=True,
        )
        self._collector.start()
        # Ready: the keeper may start the hosts now.
        os.write(self._lifeline, b"\1")

    def _start_keeper(self, workers: int, cells: _BoardCells) -> None:
        """Fork the keeper, which forks and keeps the hosts."""
        lifeline, self._lifeline = os.pipe()
        self._doorbell, doorbell = os.pipe()
        os.set_blocking(doorbell, False)
        _LIFELINES.add(self._lifeline)
        try:
            self._keeper = Forked(
                partial(
                    _keeper,
                    self.board_path,
                    cells,
                    workers,
                    self.lease_seconds,
                    self.poll_seconds,
                    lifeline,
                    doorbell,
                )
            )
        finally:
            # The keeper and its hosts hold these ends; once they have
            # all exited, the doorbell reads as closed.
            os.close(lifeline)
            os.close(doorbell)

    def _cut_lifeline(self) -> None:
        """Tell the keeper and the hosts to stop (idempotent)."""
        with self._lock:
            if self._lifeline is not None:
                _LIFELINES.discard(self._lifeline)
                os.close(self._lifeline)
                self._lifeline = None

    def _stop_keeper(self) -> None:
        """Stop the hosts at once and reap the keeper."""
        self._cut_lifeline()
        self._keeper.terminate()
        self._keeper.join(30.0)
        os.close(self._doorbell)

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
            # The 48 random bits uuid4().hex[:12] would keep, without
            # loading uuid (and platform, libuuid) to get them.
            experiment_id=os.urandom(6).hex(),
            client=client,
            scenario=spec.scenario_name(),
            config=config,
            specs=specs,
            fingerprints=fingerprints,
            charged=True,
        )
        with self._lock:
            if self._draining:
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

    def _recover_orphans(self, board: JobBoard) -> None:
        """Adopt cells a dead instance left behind on a persisted board.

        A gateway drained (or killed) with queued work leaves those
        cells ``pending`` — or ``claimed`` under a lease nobody will
        ever extend, since the dead instance's hosts stopped with it —
        on the board file.  Runs once at startup, before any host
        exists: every orphan's payload carries its client
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
        for index in sorted(board.indexes_in_state("claimed")):
            board.requeue(index)
        grouped: Dict[str, List[Tuple[int, dict]]] = {}
        for index in sorted(board.indexes_in_state("pending")):
            try:
                payload = board.payload(index)
                experiment_id = str(payload.get("experiment"))
            except (ValueError, AttributeError) as exc:
                board.fail(index)
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
                    board.fail(index)
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
    # the collector
    # ------------------------------------------------------------------

    def _collect(self, stamp: int) -> None:
        """The collector thread: deliver every cell the hosts finish.

        Reads the rows finished since ``stamp`` whenever a host rings
        the doorbell, and every ``poll_seconds`` besides (the keeper
        fails cells without ringing).  Once the keeper and every host
        have exited, the doorbell reads as closed: one last read, and
        the board and store are released.
        """
        alive = True
        while alive:
            ready = select.select([self._doorbell], [], [], self.poll_seconds)[0]
            if ready:
                alive = bool(os.read(self._doorbell, 4096))
            with self._lock:
                rows = self._board.finished_since(stamp)
            for stamp, index, attempts, encoded in rows:
                self._collect_row(index, attempts, encoded)
        if not self.draining:
            # The keeper died: nothing would compute another cell.
            _log.error("gateway hosts are gone; draining")
            self.drain()
        self._release()

    def _collect_row(self, index: int, attempts: int, encoded) -> None:
        """Publish, store and resolve one finished board row."""
        with self._lock:
            entry = self._cells.get(index)
        if entry is None:
            return  # resolved already, or not this instance's cell
        exp, cell, _fingerprint = entry
        try:
            outcome = decode_outcome(cell, encoded)
        except Exception:  # noqa: BLE001 - any damage: recompute
            if attempts < MAX_ATTEMPTS:
                with self._lock:
                    self._board.requeue(index)
                return
            outcome = lost_outcome(cell, attempts)
        exp.publish_started(cell)
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
        """JSON-ready service health: hosts, quotas, board, store.

        ``hosts`` maps each live host to its pid, the cell it holds
        (``None`` when idle) and how many seconds ago its lease was
        stamped by the claim or the last heartbeat; all read from the
        board, which also gives the ``board`` counts per cell state.
        """
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
                "hosts": self._hosts() if not self._released else None,
                "board": self._board.counts() if not self._released else None,
                "quotas": self.quotas.snapshot(),
            }
            # Same guard as the board: after drain() the listener keeps
            # serving health probes, but the store is closed.
            if self._released:
                payload["store"] = None
            else:
                with self._store_lock:
                    payload["store"] = {
                        "path": str(self._store.path),
                        "backend": self._store.backend,
                        "records": len(self._store),
                    }
        return payload

    def _hosts(self) -> Dict[str, dict]:
        # Caller holds the registry lock.
        now = time.time()
        hosts = {}
        for worker, pid, index, expiry in self._board.hosts():
            entry = self._cells.get(index)
            hosts[worker] = {
                "pid": pid,
                "cell": entry[1].describe() if entry is not None else None,
                "lease_age_s": (
                    None if expiry is None
                    else now - (expiry - self.lease_seconds)
                ),
            }
        return hosts

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
        moment the drain starts.  The lifeline is cut, so the hosts
        claim nothing more; each finishes the cell it holds, which the
        collector appends to the store, and exits.  Queued cells stay
        ``pending`` on the board file, which survives in ``workdir``,
        and a replacement instance started on the same workdir adopts
        them at startup (see :meth:`_recover_orphans`).  After up to
        ``timeout`` seconds, experiments still incomplete are marked
        ``interrupted`` so their event streams terminate cleanly; a cell
        that lands later is still stored, until :meth:`close`.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            # Under the lock, so whoever sees the drain sees it cut.
            self._cut_lifeline()
        _log.info("gateway draining: finishing leased cells")
        if threading.current_thread() is not self._collector:
            self._collector.join(timeout)
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
        _log.info("gateway drained: board state persisted at %s", self.board_path)

    def _release(self) -> None:
        """Close the board and the store (the collector's last act)."""
        with self._lock:
            self._released = True
            self._board.close()
            with self._store_lock:
                self._store.close()
            os.close(self._doorbell)

    def close(self) -> None:
        """Drain, stop every host and the keeper, release resources.

        Removes an app-owned temp workdir.  No process the app forked
        outlives this call: hosts still computing after the drain are
        stopped, and the keeper reaps them before it is reaped.
        """
        self.drain()
        if self._keeper.is_alive():
            self._keeper.terminate()
        self._keeper.join(30.0)
        self._collector.join(30.0)
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)
