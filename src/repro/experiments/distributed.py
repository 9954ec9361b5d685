"""Distributed sweep execution: a SQLite job board and worker "hosts".

The executor models a small fleet: N worker processes (the "hosts") pull
fingerprinted cells from one shared job board, compute them, and stream
outcomes into per-worker shard files; the parent reassembles outcomes in
cell order, bit-identical to the serial executor.  Because every cell is
deterministic in ``(seed, replication)`` alone, at-least-once execution
is free — a crashed worker's cell is simply recomputed, and last-wins
resolution makes duplicates harmless.

The moving parts:

* :class:`JobBoard` — one WAL-mode SQLite table of cells with a
  claim/lease protocol.  A worker ``claim()`` atomically takes the
  lowest pending cell and stamps a lease expiry; a heartbeat thread
  extends the lease while the cell computes.  If the worker dies, the
  lease lapses and the parent requeues the cell, bounded by
  ``max_attempts``.
* **Shard files** — each worker appends outcomes as fsync'd JSON lines
  to its own ``outcomes-<host>.jsonl``.  The parent tails every shard
  incrementally; a torn tail is retried on the next poll, and a
  complete-but-undecodable line counts as corruption.  Workers mark a
  cell done only *after* its outcome line is durable, so "done on the
  board but unreadable in every shard" is a corruption signal the
  parent answers by requeueing the cell.
* :class:`DistributedSweepExecutor` — the parent loop: spawn workers,
  tail shards, expire leases, respawn dead hosts within a restart
  budget, and emit worker lifecycle events (``worker_started``,
  ``worker_stopped``, ``worker_lost``, ``cell_retried``) through
  :attr:`~DistributedSweepExecutor.lifecycle_hook` onto the sweep
  telemetry bus.  It is the only multi-process executor:
  ``run_sweep(workers=N)`` and ``repro run --workers N`` reach it.

Hosts are started with ``os.fork`` and reaped by the parent with
``os.waitpid`` (:class:`_Host`), so the cell runner (a closure over the
sweep's config and roster) is inherited, never pickled, and so is the
protocol registry, including families registered at run time.  A host
leaves through ``os._exit``, never through the parent's stack or its
exit handlers.  The parent closes its board connection around each
fork, so every host opens its own.  Where fork is unavailable the
executor degrades to the serial path, preserving results exactly.  A
host stops claiming once its parent is gone, so a killed sweep does not
leave hosts draining the grid for nobody, and it removes the sweep's
temp workdir on the way out.

Failure semantics mirror the rest of the stack: a runner that raises a
*deterministic* exception produces an error outcome exactly once (no
retry — rerunning deterministic code cannot help), while worker *death*
(kill, OOM, a fault hook calling ``os._exit``) triggers lease-expiry
retry.  A cell whose retry budget is exhausted yields a
synthetic ``WorkerLost`` error outcome, which
:func:`~repro.experiments.runner.assemble_results` surfaces as a
:class:`~repro.errors.SweepExecutionError`.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.experiments.parallel import (
    CellError,
    CellOutcome,
    CellRunner,
    OutcomeCallback,
    ProgressCallback,
    ProgressEvent,
    SerialSweepExecutor,
    SweepCell,
    SweepExecutor,
    _eta,
    _execute_cell,
)
from repro.metrics.stats import RunSummary

__all__ = ["CELL_STATES", "DistributedSweepExecutor", "JobBoard"]

#: Lifecycle of one board cell.  ``pending`` (claimable once its
#: ``not_before`` time has passed) -> ``claimed`` (leased to a worker)
#: -> ``done`` / ``failed``; lease expiry moves ``claimed`` back to
#: ``pending`` until the attempt budget runs out.
CELL_STATES = ("pending", "claimed", "done", "failed")

_BOARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    idx INTEGER PRIMARY KEY,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_expiry REAL,
    not_before REAL NOT NULL DEFAULT 0
);
"""


class JobBoard:
    """The shared cell queue: claim/lease/complete over one SQLite file.

    Every participant — the parent and each worker host — opens its
    *own* ``JobBoard`` on the same path (a host's heartbeat thread
    shares the host's connection); WAL mode plus ``BEGIN IMMEDIATE``
    claim transactions make the hand-off race-free (a cell is leased to
    exactly one worker at a time).

    Args:
        path: The SQLite file backing the board.
        busy_timeout: Seconds a statement waits on another participant's
            write lock.
        cross_thread: Allow this connection to be used from threads other
            than the opener (the experiment gateway's parent connection
            serves submissions and drains from different threads, with
            its own lock serializing access; a sweep host lends its
            connection to its heartbeat thread while a cell runs).

    Raises:
        ReproError: When ``path`` cannot be opened as a job board (not
            a SQLite file, or unreadable), or when any later query finds
            it damaged; the message names the path.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        busy_timeout: float = 30.0,
        cross_thread: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self._conn = None
        try:
            self._conn = sqlite3.connect(
                self.path,
                timeout=busy_timeout,
                isolation_level=None,
                check_same_thread=not cross_thread,
            )
            # The board is scratch state, rebuildable from the sweep grid:
            # NORMAL sync keeps claims cheap without risking record data.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_BOARD_SCHEMA)
        except sqlite3.DatabaseError as exc:
            if self._conn is not None:
                self._conn.close()
            raise ReproError(
                f"cannot open {self.path} as a job board: {exc}"
            ) from exc

    def _query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Run one statement and fetch its rows.

        Every board statement runs here.  A board whose schema page is
        intact but whose data pages are damaged opens cleanly and fails
        only when queried; this turns that into a :class:`ReproError`
        naming the path.
        """
        try:
            return self._conn.execute(sql, params).fetchall()
        except sqlite3.DatabaseError as exc:
            raise ReproError(f"job board {self.path} is damaged: {exc}") from exc

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE`` transaction, rolled back on any error."""
        self._query("BEGIN IMMEDIATE")
        try:
            yield
            self._query("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._query("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    def populate(self, cells: Sequence[SweepCell]) -> None:
        """Insert cells as pending; already-present indexes are kept."""
        with self._transaction():
            for cell in cells:
                self.add(cell.index, asdict(cell))

    def add(self, index: int, payload: Dict[str, Any]) -> None:
        """Insert one pending cell with an arbitrary JSON payload.

        The sweep executors store bare :class:`SweepCell` dicts (see
        :meth:`populate`); the experiment gateway stores richer payloads
        (cell + owning experiment + fingerprint) and reads them back via
        :meth:`claim_payload`.
        """
        self._query(
            "INSERT OR IGNORE INTO cells (idx, payload) VALUES (?, ?)",
            (index, json.dumps(payload, sort_keys=True)),
        )

    def max_index(self) -> int:
        """The highest cell index on the board (``-1`` when empty).

        The gateway allocates board-global indexes across experiments by
        continuing from here when reopening a persisted board.
        """
        [(value,)] = self._query("SELECT MAX(idx) FROM cells")
        return -1 if value is None else int(value)

    # ------------------------------------------------------------------
    # the claim/lease protocol
    # ------------------------------------------------------------------

    def claim(
        self, worker: str, lease_seconds: float
    ) -> Optional[tuple[SweepCell, int]]:
        """Atomically lease the lowest claimable cell to ``worker``.

        Returns:
            ``(cell, attempt)`` — attempt counts this claim, starting at
            1 — or ``None`` when nothing is claimable right now (empty
            board, every cell leased/finished, or requeued cells not yet
            due).
        """
        claimed = self.claim_payload(worker, lease_seconds)
        if claimed is None:
            return None
        _index, payload, attempt = claimed
        return SweepCell(**payload), attempt

    def claim_payload(
        self, worker: str, lease_seconds: float
    ) -> Optional[tuple[int, Dict[str, Any], int]]:
        """Like :meth:`claim`, but return the raw JSON payload.

        Returns:
            ``(index, payload, attempt)`` or ``None`` when nothing is
            claimable.  This is the primitive for boards whose payloads
            are not bare :class:`SweepCell` dicts (the gateway).
        """
        now = time.time()
        with self._transaction():
            rows = self._query(
                "SELECT idx, payload, attempts FROM cells "
                "WHERE state = 'pending' AND not_before <= ? "
                "ORDER BY idx LIMIT 1",
                (now,),
            )
            if not rows:
                return None
            [(idx, payload, attempts)] = rows
            self._query(
                "UPDATE cells SET state = 'claimed', worker = ?, "
                "lease_expiry = ?, attempts = ? WHERE idx = ?",
                (worker, now + lease_seconds, attempts + 1, idx),
            )
        return idx, json.loads(payload), attempts + 1

    def heartbeat(self, worker: str, index: int, lease_seconds: float) -> bool:
        """Extend ``worker``'s lease on a cell it still holds.

        Returns:
            Whether the lease was extended — ``False`` means the cell
            was reassigned (the lease had already lapsed), a signal the
            worker's result may be superseded.
        """
        self._query(
            "UPDATE cells SET lease_expiry = ? "
            "WHERE idx = ? AND worker = ? AND state = 'claimed'",
            (time.time() + lease_seconds, index, worker),
        )
        return self._query("SELECT changes()") == [(1,)]

    def complete(self, index: int) -> None:
        """Mark a cell done (terminal; idempotent across duplicate runs)."""
        self._query("UPDATE cells SET state = 'done' WHERE idx = ?", (index,))

    def fail(self, index: int) -> None:
        """Mark a cell failed — a *deterministic* error, never retried."""
        self._query("UPDATE cells SET state = 'failed' WHERE idx = ?", (index,))

    def requeue(self, index: int, not_before: float = 0.0) -> None:
        """Force a cell back to pending (the corruption-recovery path)."""
        self._query(
            "UPDATE cells SET state = 'pending', worker = NULL, "
            "lease_expiry = NULL, not_before = ? WHERE idx = ?",
            (not_before, index),
        )

    def expire_leases(
        self, max_attempts: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Reap lapsed leases: requeue, or exhaust.

        A claimed cell whose lease expired was held by a dead (or
        wedged) worker.  Cells with attempts left go back to pending at
        once; cells at the ``max_attempts`` ceiling become failed.

        Returns:
            ``(retried, exhausted)`` lists of ``(index, attempts)``.
        """
        now = time.time()
        retried: list[tuple[int, int]] = []
        exhausted: list[tuple[int, int]] = []
        with self._transaction():
            rows = self._query(
                "SELECT idx, attempts FROM cells "
                "WHERE state = 'claimed' AND lease_expiry < ?",
                (now,),
            )
            for idx, attempts in rows:
                if attempts >= max_attempts:
                    self.fail(idx)
                    exhausted.append((idx, attempts))
                else:
                    self.requeue(idx)
                    retried.append((idx, attempts))
        return retried, exhausted

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Cell count per state (every state present, zero-filled)."""
        result = {state: 0 for state in CELL_STATES}
        for state, count in self._query(
            "SELECT state, COUNT(*) FROM cells GROUP BY state"
        ):
            result[state] = count
        return result

    def unfinished(self) -> int:
        """Cells not yet terminal (pending, due or not, or claimed)."""
        [(count,)] = self._query(
            "SELECT COUNT(*) FROM cells WHERE state IN ('pending', 'claimed')"
        )
        return count

    def indexes_in_state(self, state: str) -> set[int]:
        """The cell indexes currently in ``state``."""
        if state not in CELL_STATES:
            raise ConfigurationError(
                f"unknown cell state {state!r} (choose from {CELL_STATES})"
            )
        return {
            idx
            for (idx,) in self._query(
                "SELECT idx FROM cells WHERE state = ?", (state,)
            )
        }

    def payload(self, index: int) -> Optional[Dict[str, Any]]:
        """The decoded JSON payload of one cell (``None`` for no such cell).

        The experiment gateway reads orphaned cells back through this
        when it adopts a persisted board from a previous instance.
        """
        rows = self._query("SELECT payload FROM cells WHERE idx = ?", (index,))
        return json.loads(rows[0][0]) if rows else None

    def attempts(self, index: int) -> int:
        """How many times the cell has been claimed."""
        rows = self._query("SELECT attempts FROM cells WHERE idx = ?", (index,))
        if not rows:
            raise ConfigurationError(f"no cell {index} on the job board")
        return rows[0][0]

    def close(self) -> None:
        """Close this participant's connection (the board file persists)."""
        self._conn.close()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _ShardWriter:
    """Appends one worker's outcomes as durable JSON lines."""

    def __init__(self, path: str) -> None:
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, outcome: CellOutcome, attempt: int) -> None:
        # Real sweeps produce RunSummary results; ad-hoc runners may
        # return any JSON-serializable value, so tag which one this is.
        if isinstance(outcome.summary, RunSummary):
            summary_kind, summary = "run_summary", outcome.summary.to_dict()
        else:
            summary_kind, summary = "raw", outcome.summary
        payload: Dict[str, Any] = {
            "index": outcome.cell.index,
            "attempt": attempt,
            "ok": outcome.ok,
            "elapsed": outcome.elapsed,
            "summary": summary,
            "summary_kind": summary_kind,
            "telemetry": outcome.telemetry,
            "error": asdict(outcome.error) if outcome.error is not None else None,
        }
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def _heartbeat_loop(
    board: JobBoard,
    worker_id: str,
    index: int,
    lease_seconds: float,
    stop: threading.Event,
) -> None:
    # Three beats per lease: one late beat never lets a live claim lapse.
    while not stop.wait(lease_seconds / 3.0):
        board.heartbeat(worker_id, index, lease_seconds)


def _worker_main(
    board_path: str,
    shard_path: str,
    worker_id: str,
    runner: CellRunner,
    lease_seconds: float,
    poll_seconds: float,
    fault_hook: Optional[Callable[[SweepCell, int], None]],
    parent_pid: int,
    temp_workdir: Optional[str],
) -> None:
    """One host: claim cells, compute, write the shard, mark the board.

    The outcome line is fsync'd *before* the board marks the cell
    done/failed — the ordering the parent's corruption detection relies
    on.  Exits cleanly once the board has no unfinished cells, or before
    its next claim once ``parent_pid`` is no longer its parent (the
    sweep was killed; nobody would read what it computes).  An orphaned
    host then removes ``temp_workdir``, the temp dir the dead parent
    would have removed (``None`` for a caller's kept workdir).

    The host opens one board connection.  Its heartbeat thread uses it
    while a cell runs, the only time the host thread leaves it alone.
    """
    board = JobBoard(board_path, cross_thread=True)
    writer = _ShardWriter(shard_path)
    try:
        while os.getppid() == parent_pid:
            claimed = board.claim(worker_id, lease_seconds)
            if claimed is None:
                if board.unfinished() == 0:
                    break
                time.sleep(poll_seconds)
                continue
            cell, attempt = claimed
            if fault_hook is not None:
                # The injection seam: a hook that calls os._exit (or
                # raises) here simulates a host dying mid-cell.
                fault_hook(cell, attempt)
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(board, worker_id, cell.index, lease_seconds, stop),
                daemon=True,
            )
            beat.start()
            try:
                outcome = _execute_cell(cell, runner)
            finally:
                stop.set()
                beat.join()
            writer.append(outcome, attempt)
            if outcome.ok:
                board.complete(cell.index)
            else:
                board.fail(cell.index)
    finally:
        writer.close()
        board.close()
    if temp_workdir is not None and os.getppid() != parent_pid:
        # A sibling host may get here too; removing twice is harmless.
        shutil.rmtree(temp_workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _ShardReader:
    """Incrementally tails one shard file from the parent.

    Only complete (newline-terminated) lines are consumed; a torn tail —
    a worker killed mid-append — stays unread until the retry completes
    it or supersedes it.  Complete lines that fail to decode count as
    corruption and are skipped (the board-side "done without an
    outcome" check requeues the affected cell).
    """

    def __init__(self, path: str, cells_by_index: Dict[int, SweepCell]) -> None:
        self.path = path
        self._cells_by_index = cells_by_index
        self._offset = 0
        self.corrupt_lines = 0

    def poll(self) -> list[CellOutcome]:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when data ends in a newline
        self._offset += len(data) - len(tail)
        outcomes: list[CellOutcome] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                outcomes.append(self._decode(json.loads(line)))
            except Exception:  # noqa: BLE001 - any damage means corrupt
                self.corrupt_lines += 1
        return outcomes

    def _decode(self, payload: dict) -> CellOutcome:
        cell = self._cells_by_index[payload["index"]]
        summary = payload["summary"]
        if payload["summary_kind"] == "run_summary":
            summary = RunSummary.from_dict(summary)
        error = (
            CellError(**payload["error"]) if payload["error"] is not None else None
        )
        if error is None and summary is None:
            raise ValueError("outcome carries neither summary nor error")
        return CellOutcome(
            cell=cell,
            summary=summary,
            error=error,
            elapsed=payload["elapsed"],
            telemetry=payload["telemetry"],
        )


def _lost_outcome(cell: SweepCell, attempts: int) -> CellOutcome:
    error = CellError(
        exc_type="WorkerLost",
        message=(
            f"cell {cell.describe()} was claimed {attempts} time(s) but no "
            "worker delivered a readable outcome (worker death or corrupted "
            "shard output); retry budget exhausted"
        ),
        traceback="",
    )
    return CellOutcome(cell=cell, summary=None, error=error, elapsed=0.0)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass  # no stream, or a closed one


class _Host:
    """One forked host process, as the parent loop sees it.

    The constructor forks; the child runs ``target()`` and leaves
    through ``os._exit`` — 0 when ``target`` returns, 1 after printing
    the traceback of anything it raised — so it never unwinds into the
    parent's stack or runs the parent's exit handlers.  The parent reaps
    the child with ``os.waitpid``: :attr:`exitcode` stays ``None`` until
    then, and reads ``-N`` for a child killed by signal ``N``.
    """

    def __init__(self, target: Callable[[], None]) -> None:
        # Buffered output would otherwise be written by both processes.
        _flush_std_streams()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    target()
                    code = 0
                except BaseException:  # noqa: BLE001 - report, then exit 1
                    traceback.print_exc()
                _flush_std_streams()
            finally:
                os._exit(code)
        self.pid = pid
        self._exitcode: Optional[int] = None

    @property
    def exitcode(self) -> Optional[int]:
        """The exit code once the host is reaped (``None`` while it runs)."""
        if self._exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode

    def is_alive(self) -> bool:
        """Whether the host still runs (reaps it once it has exited)."""
        return self.exitcode is None

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the host to exit."""
        deadline = time.monotonic() + timeout
        while self.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)

    def terminate(self) -> None:
        """Send the host SIGTERM (nothing once it has been reaped)."""
        import signal  # only a host that outstays the final join needs it

        if self.exitcode is None:
            os.kill(self.pid, signal.SIGTERM)


class DistributedSweepExecutor(SweepExecutor):
    """Fan cells out to N forked "hosts" via a shared SQLite job board.

    Registered as ``"distributed"``; ``run_sweep(workers=N)`` with N > 1
    selects it, as do ``executor="distributed"`` and the CLI's
    ``--workers N``.  Hosts claim one cell at a time, so a crash loses at
    most the cell in hand.  Outcomes are reassembled in cell order and
    are bit-identical to the serial executor — including under worker
    crashes, which the lease/retry protocol absorbs.  A lease is extended
    every third of ``lease_seconds``, and dead hosts are replaced up to
    ``workers * max_attempts`` times.

    Args:
        workers: Host count; ``None`` means ``os.cpu_count()``, clamped
            to the cell count.
        lease_seconds: How long a claim stays valid without a heartbeat.
        poll_seconds: Parent/worker poll interval for shard tails and
            idle claims.
        max_attempts: Claim ceiling per cell before it is declared lost.
        workdir: Directory for the board and shards; ``None`` uses a
            temp dir removed after the run.  A caller-supplied workdir
            must be absent or empty when a run starts (another sweep's
            board and shards would answer for this one's cells) and is
            kept after the run for post-mortems.
        fault_hook: Test seam, called in the *worker* process as
            ``hook(cell, attempt)`` right after each claim.  Raising or
            ``os._exit``-ing simulates a host fault.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.05,
        max_attempts: int = 3,
        workdir: "str | os.PathLike | None" = None,
        fault_hook: Optional[Callable[[SweepCell, int], None]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"DistributedSweepExecutor needs workers >= 1, got {workers}"
            )
        if lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be > 0, got {lease_seconds}"
            )
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if poll_seconds <= 0:
            raise ConfigurationError(
                f"poll_seconds must be > 0, got {poll_seconds}"
            )
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.max_attempts = max_attempts
        self.workdir = os.fspath(workdir) if workdir is not None else None
        self.fault_hook = fault_hook
        #: Parent-side lifecycle sink, ``hook(kind, payload)``;
        #: ``run_sweep`` points it at the telemetry bus.
        self.lifecycle_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None

    def _emit(self, kind: str, payload: Dict[str, Any]) -> None:
        if self.lifecycle_hook is not None:
            self.lifecycle_hook(kind, payload)

    def run(
        self,
        cells: Sequence[SweepCell],
        runner: CellRunner,
        on_progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> list[CellOutcome]:
        if not cells:
            return []
        kept = self.workdir
        if kept is not None and os.path.isdir(kept) and os.listdir(kept):
            raise ConfigurationError(
                f"workdir {kept} is not empty: a sweep needs a fresh board "
                "and shard files (remove it or pick another directory)"
            )
        if not hasattr(os, "fork"):
            # No fork: the runner closure cannot reach hosts unpickled.
            return SerialSweepExecutor().run(cells, runner, on_progress, on_outcome)
        workers = max(1, min(self.workers or os.cpu_count() or 1, len(cells)))
        workdir = kept or tempfile.mkdtemp(prefix="repro-distributed-")
        owns_workdir = kept is None
        os.makedirs(workdir, exist_ok=True)
        board_path = os.path.join(workdir, "board.sqlite")
        board = JobBoard(board_path)
        board.populate(cells)
        cells_by_index = {cell.index: cell for cell in cells}
        total = len(cells)
        restarts_left = workers * self.max_attempts
        delivered: Dict[int, CellOutcome] = {}
        readers: Dict[str, _ShardReader] = {}
        procs: Dict[str, _Host] = {}
        next_host = 0
        t0 = time.perf_counter()

        def spawn(count: int) -> None:
            # Fork with the parent's board connection closed: a host that
            # inherited it would share SQLite's per-process lock state
            # for the board with the parent.
            nonlocal board, next_host
            board.close()
            for _ in range(count):
                worker_id = f"host-{next_host}"
                next_host += 1
                shard = os.path.join(workdir, f"outcomes-{worker_id}.jsonl")
                readers[worker_id] = _ShardReader(shard, cells_by_index)
                proc = _Host(
                    partial(
                        _worker_main,
                        board_path,
                        shard,
                        worker_id,
                        runner,
                        self.lease_seconds,
                        self.poll_seconds,
                        self.fault_hook,
                        os.getpid(),
                        workdir if owns_workdir else None,
                    )
                )
                procs[worker_id] = proc
                self._emit(
                    "worker_started", {"worker": worker_id, "pid": proc.pid}
                )
            board = JobBoard(board_path)

        def drain_shards() -> None:
            for reader in readers.values():
                for outcome in reader.poll():
                    deliver(outcome)

        def deliver(outcome: CellOutcome) -> None:
            index = outcome.cell.index
            if index in delivered:
                # A duplicate from an at-least-once retry: the cell is
                # deterministic, so either copy is the same result.
                return
            delivered[index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)
            if on_progress is not None:
                elapsed = time.perf_counter() - t0
                on_progress(
                    ProgressEvent(
                        kind="completed",
                        cell=outcome.cell,
                        completed=len(delivered),
                        total=total,
                        elapsed=elapsed,
                        eta=_eta(len(delivered), total, elapsed),
                        ok=outcome.ok,
                    )
                )

        spawn(workers)
        try:
            while len(delivered) < total:
                drain_shards()
                retried, exhausted = board.expire_leases(self.max_attempts)
                for idx, attempts in retried:
                    self._emit(
                        "cell_retried", {"index": idx, "attempts": attempts}
                    )
                for idx, attempts in exhausted:
                    if idx not in delivered:
                        deliver(_lost_outcome(cells_by_index[idx], attempts))
                self._recover_corrupted(board, delivered, drain_shards, deliver,
                                        cells_by_index)
                # Reap dead hosts; replace them while claimable work remains.
                for worker_id, proc in list(procs.items()):
                    if proc.is_alive():
                        continue
                    del procs[worker_id]
                    kind = "worker_stopped" if proc.exitcode == 0 else "worker_lost"
                    self._emit(
                        kind, {"worker": worker_id, "exitcode": proc.exitcode}
                    )
                    if kind == "worker_lost" and restarts_left > 0:
                        restarts_left -= 1
                        spawn(1)
                if len(delivered) >= total:
                    break
                if not procs:
                    drain_shards()
                    if len(delivered) >= total:
                        break
                    if board.unfinished() > 0 and restarts_left > 0:
                        restarts_left -= 1
                        spawn(1)
                    elif board.unfinished() > 0:
                        # Fleet gone, restart budget spent: declare the
                        # remaining cells lost rather than spin forever.
                        for cell in cells:
                            if cell.index not in delivered:
                                deliver(
                                    _lost_outcome(
                                        cell, board.attempts(cell.index)
                                    )
                                )
                        break
                    # unfinished == 0 with undelivered cells: the
                    # corruption path above requeues them next pass.
                time.sleep(self.poll_seconds)
        finally:
            # Workers drain the board and exit on their own once nothing
            # is unfinished; report how each one ended.
            for worker_id, proc in procs.items():
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=10.0)
                kind = "worker_stopped" if proc.exitcode == 0 else "worker_lost"
                self._emit(kind, {"worker": worker_id, "exitcode": proc.exitcode})
            board.close()
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        return [delivered[cell.index] for cell in cells]

    def _recover_corrupted(
        self,
        board: JobBoard,
        delivered: Dict[int, CellOutcome],
        drain_shards: Callable[[], None],
        deliver: Callable[[CellOutcome], None],
        cells_by_index: Dict[int, SweepCell],
    ) -> None:
        """Requeue cells the board calls finished but no shard backs up.

        A worker fsyncs the outcome line before marking the board, so a
        terminal cell with no readable outcome means the shard line was
        damaged.  One extra drain closes the mark-then-read race; cells
        still missing are recomputed (or declared lost at the attempt
        ceiling).
        """
        finished = board.indexes_in_state("done") | board.indexes_in_state("failed")
        missing = [idx for idx in finished if idx not in delivered]
        if not missing:
            return
        drain_shards()
        for idx in missing:
            if idx in delivered:
                continue
            attempts = board.attempts(idx)
            if attempts >= self.max_attempts:
                deliver(_lost_outcome(cells_by_index[idx], attempts))
            else:
                board.requeue(idx)
                self._emit(
                    "cell_retried",
                    {"index": idx, "attempts": attempts, "corrupt": True},
                )
