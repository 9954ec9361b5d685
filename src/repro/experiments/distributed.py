"""Distributed sweep execution: a SQLite job board and forked "hosts".

The executor models a small fleet: N forked processes (the "hosts") pull
cells from one shared job board, compute them, and write each outcome
back into its cell's row; the parent reads the finished rows and
reassembles outcomes in cell order, bit-identical to the serial
executor.  Because every cell is deterministic in ``(seed, replication)``
alone, at-least-once execution is free — a crashed host's cell is simply
recomputed, and the parent keeps the first outcome of a cell, so
duplicates are harmless.

The moving parts:

* :class:`~repro.experiments.board.JobBoard` — one WAL-mode SQLite
  table of cells with a claim/lease protocol.  A host claims the lowest
  pending cell and stamps a lease expiry; a heartbeat thread extends
  the lease while the cell computes.  A host reports the cell with
  ``complete()`` or ``fail()``, which set its state, its encoded outcome
  and a finish stamp in one statement.
* :mod:`repro.experiments.hosts` — the one host loop
  (:func:`~repro.experiments.hosts.host_loop`, which ``repro serve``'s
  hosts run too) and :class:`~repro.experiments.hosts.HostFleet`, which
  forks hosts, reaps them, takes back a dead host's cell at once and
  replaces lost hosts within a budget of ``workers * max_attempts``.
* :class:`DistributedSweepExecutor` — the parent loop: drive the fleet,
  read the rows finished since its previous poll (one query a poll),
  requeue a row whose outcome does not decode, take back lapsed leases,
  and emit host lifecycle events (``worker_started``,
  ``worker_stopped``, ``worker_lost``, ``cell_retried``) through
  :attr:`~DistributedSweepExecutor.lifecycle_hook` onto the sweep
  telemetry bus.  It is the only multi-process executor:
  ``run_sweep(workers=N)`` and ``repro run --workers N`` reach it.

Hosts are forked (never exec'd) and reaped with ``os.waitpid``, so the
cell runner (a closure over the sweep's config and roster) is inherited,
never pickled, and so is the protocol registry, including families
registered at run time.  The parent closes its board connection around
each fork, so every host opens its own.  Where fork is unavailable the
executor degrades to the serial path, preserving results exactly.  A
host stops claiming once its parent is gone, so a killed sweep does not
leave hosts draining the grid for nobody, and it removes the sweep's
temp workdir on the way out.

Failure semantics mirror the rest of the stack: a runner that raises a
*deterministic* exception produces an error outcome exactly once (no
retry — rerunning deterministic code cannot help), while host *death*
(kill, OOM, a fault hook calling ``os._exit``) triggers a retry.  A cell
whose retry budget is exhausted yields a ``WorkerLost`` error outcome,
which :func:`~repro.experiments.runner.assemble_results` surfaces as a
:class:`~repro.errors.SweepExecutionError`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.board import (
    CELL_STATES,
    LEASE_SECONDS,
    MAX_ATTEMPTS,
    JobBoard,
    decode_outcome,
    lost_outcome,
)
from repro.experiments.hosts import HostFleet, host_loop
from repro.experiments.parallel import (
    CellOutcome,
    CellRunner,
    OutcomeCallback,
    ProgressCallback,
    ProgressEvent,
    SerialSweepExecutor,
    SweepCell,
    SweepExecutor,
    _eta,
)

__all__ = ["CELL_STATES", "DistributedSweepExecutor", "JobBoard"]


def _sweep_cell(runner: CellRunner, payload: Dict[str, Any]):
    """A sweep row's payload is its cell; every cell runs on ``runner``."""
    return SweepCell(**payload), runner


class DistributedSweepExecutor(SweepExecutor):
    """Fan cells out to N forked "hosts" via a shared SQLite job board.

    Registered as ``"distributed"``; ``run_sweep(workers=N)`` with N > 1
    selects it, as do ``executor="distributed"`` and the CLI's
    ``--workers N``.  Hosts claim one cell at a time, so a crash loses at
    most the cell in hand.  Outcomes are reassembled in cell order and
    are bit-identical to the serial executor — including under host
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
        lease_seconds: float = LEASE_SECONDS,
        poll_seconds: float = 0.05,
        max_attempts: int = MAX_ATTEMPTS,
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
        host = partial(
            host_loop,
            board_path,
            partial(_sweep_cell, runner),
            self.lease_seconds,
            self.poll_seconds,
            fault_hook=self.fault_hook,
            temp_workdir=workdir if owns_workdir else None,
        )
        fleet = HostFleet(board_path, host, workers, self.max_attempts, self._emit)
        fleet.board.populate(cells)
        cells_by_index = {cell.index: cell for cell in cells}
        total = len(cells)
        delivered: Dict[int, CellOutcome] = {}
        t0 = time.perf_counter()

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

        fleet.spawn(workers)
        last_stamp = 0  # the finish stamp of the last board row read
        try:
            while len(delivered) < total:
                # Reap dead hosts before reading the board, so the read
                # sees every cell they finished; replace lost ones.
                fleet.reap()
                board = fleet.board
                for last_stamp, idx, attempts, encoded in board.finished_since(
                    last_stamp
                ):
                    if idx in delivered:
                        continue  # a duplicate, or a cell already lost
                    try:
                        outcome = decode_outcome(cells_by_index[idx], encoded)
                    except Exception:  # noqa: BLE001 - any damage: recompute
                        if attempts >= self.max_attempts:
                            deliver(lost_outcome(cells_by_index[idx], attempts))
                        else:
                            board.requeue(idx)
                            self._emit(
                                "cell_retried",
                                {"index": idx, "attempts": attempts, "corrupt": True},
                            )
                        continue
                    deliver(outcome)
                # A cell at the attempt ceiling fails with a WorkerLost
                # outcome in its row, read on the next poll.
                retried, _exhausted = board.expire_leases(self.max_attempts)
                for idx, attempts in retried:
                    self._emit(
                        "cell_retried", {"index": idx, "attempts": attempts}
                    )
                if len(delivered) >= total:
                    break
                # Every host gone and all they finished read: the cells
                # left are pending.  Fork one more, or, with the restart
                # budget spent, fail them rather than spin forever.
                fleet.keep_one()
                time.sleep(self.poll_seconds)
        finally:
            # Hosts drain the board and exit on their own once nothing
            # is unfinished; report how each one ended.
            fleet.stop(10.0)
            fleet.board.close()
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        return [delivered[cell.index] for cell in cells]
