"""Distributed sweep execution: a SQLite job board and worker "hosts".

The executor models a small fleet: N worker processes (the "hosts") pull
fingerprinted cells from one shared job board, compute them, and write
each outcome back into its cell's row; the parent reads the finished rows
and reassembles outcomes in cell order, bit-identical to the serial
executor.  Because every cell is deterministic in ``(seed, replication)``
alone, at-least-once execution is free — a crashed worker's cell is
simply recomputed, and the parent keeps the first outcome of a cell, so
duplicates are harmless.

The moving parts:

* :class:`~repro.experiments.board.JobBoard` — one WAL-mode SQLite
  table of cells with a claim/lease protocol.  A worker ``claim()``
  atomically takes the lowest pending cell and stamps a lease expiry; a
  heartbeat thread extends the lease while the cell computes.  If the worker dies, the
  lease lapses and the parent requeues the cell, bounded by
  ``max_attempts``.  A worker reports the cell with ``complete()`` or
  ``fail()``, which set its state, its encoded outcome and a finish
  stamp in one statement.
* :class:`DistributedSweepExecutor` — the parent loop: spawn workers,
  read the rows finished since its previous poll (one query a poll),
  requeue a row whose outcome does not decode, expire leases, respawn
  dead hosts within a restart budget, and emit worker lifecycle events
  (``worker_started``, ``worker_stopped``, ``worker_lost``,
  ``cell_retried``) through
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
import sys
import tempfile
import threading
import time
import traceback
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence

from repro._record import asdict
from repro.errors import ConfigurationError
from repro.experiments.board import CELL_STATES, JobBoard
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

# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _encode_outcome(outcome: CellOutcome) -> str:
    """A host's outcome as the JSON text its board row carries."""
    # Real sweeps produce RunSummary results; ad-hoc runners may
    # return any JSON-serializable value, so tag which one this is.
    if isinstance(outcome.summary, RunSummary):
        summary_kind, summary = "run_summary", outcome.summary.to_dict()
    else:
        summary_kind, summary = "raw", outcome.summary
    payload: Dict[str, Any] = {
        "elapsed": outcome.elapsed,
        "summary": summary,
        "summary_kind": summary_kind,
        "telemetry": outcome.telemetry,
        "error": asdict(outcome.error) if outcome.error is not None else None,
    }
    return json.dumps(payload, sort_keys=True)


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
    worker_id: str,
    runner: CellRunner,
    lease_seconds: float,
    poll_seconds: float,
    fault_hook: Optional[Callable[[SweepCell, int], None]],
    parent_pid: int,
    temp_workdir: Optional[str],
) -> None:
    """One host: claim cells, compute, report each outcome on the board.

    The outcome goes into the cell's row in the same statement that marks
    it done/failed.  Exits cleanly once the board has no unfinished
    cells, or before its next claim once ``parent_pid`` is no longer its
    parent (the sweep was killed; nobody would read what it computes).
    An orphaned host then removes ``temp_workdir``, the temp dir the dead
    parent would have removed (``None`` for a caller's kept workdir).

    The host opens one board connection.  Its heartbeat thread uses it
    while a cell runs, the only time the host thread leaves it alone.
    """
    board = JobBoard(board_path, cross_thread=True)
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
            finish = board.complete if outcome.ok else board.fail
            finish(cell.index, _encode_outcome(outcome))
    finally:
        board.close()
    if temp_workdir is not None and os.getppid() != parent_pid:
        # A sibling host may get here too; removing twice is harmless.
        shutil.rmtree(temp_workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def _decode_outcome(cell: SweepCell, encoded: Optional[str]) -> CellOutcome:
    """Rebuild ``cell``'s outcome from its board row; any damage raises."""
    payload = json.loads(encoded)
    summary = payload["summary"]
    if payload["summary_kind"] == "run_summary":
        summary = RunSummary.from_dict(summary)
    error = CellError(**payload["error"]) if payload["error"] is not None else None
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
            "worker delivered a readable outcome (worker death or a damaged "
            "outcome on the board); retry budget exhausted"
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
        poll_seconds: How often the parent reads finished cells and
            reaps hosts, and how long an idle host waits between claims.
        max_attempts: Claim ceiling per cell before it is declared lost.
        workdir: Directory for the board (``board.sqlite``, the only
            file a run leaves there); ``None`` uses a temp dir removed
            after the run.  A caller-supplied workdir must be absent or
            empty when a run starts (another sweep's board would answer
            for this one's cells) and is kept after the run for
            post-mortems.
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
                "(remove it or pick another directory)"
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
                proc = _Host(
                    partial(
                        _worker_main,
                        board_path,
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
        last_stamp = 0  # the finish stamp of the last board row read
        try:
            while len(delivered) < total:
                # Reap dead hosts before reading the board, so the read
                # sees every cell they finished; replace lost ones.
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
                for last_stamp, idx, attempts, encoded in board.finished_since(
                    last_stamp
                ):
                    if idx in delivered:
                        continue  # a duplicate, or a cell already lost
                    try:
                        outcome = _decode_outcome(cells_by_index[idx], encoded)
                    except Exception:  # noqa: BLE001 - any damage: recompute
                        if attempts >= self.max_attempts:
                            deliver(_lost_outcome(cells_by_index[idx], attempts))
                        else:
                            board.requeue(idx)
                            self._emit(
                                "cell_retried",
                                {"index": idx, "attempts": attempts, "corrupt": True},
                            )
                        continue
                    deliver(outcome)
                retried, exhausted = board.expire_leases(self.max_attempts)
                for idx, attempts in retried:
                    self._emit(
                        "cell_retried", {"index": idx, "attempts": attempts}
                    )
                for idx, attempts in exhausted:
                    if idx not in delivered:
                        deliver(_lost_outcome(cells_by_index[idx], attempts))
                if len(delivered) >= total:
                    break
                if not procs:
                    # Every host is gone and all they finished is read:
                    # the cells left are pending or leased to a dead host.
                    if restarts_left > 0:
                        restarts_left -= 1
                        spawn(1)
                    else:
                        # Restart budget spent: declare the remaining
                        # cells lost rather than spin forever.
                        for cell in cells:
                            if cell.index not in delivered:
                                deliver(
                                    _lost_outcome(
                                        cell, board.attempts(cell.index)
                                    )
                                )
                        break
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
