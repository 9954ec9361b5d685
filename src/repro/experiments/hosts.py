"""Board hosts: the one host loop, and the supervision that forks hosts.

A *host* is a forked process that serves a
:class:`~repro.experiments.board.JobBoard`: it claims a row, computes
the cell under a heartbeat, and writes the encoded outcome into the row
(:func:`host_loop`).  Every cell the repo computes off its caller's
process runs here, whoever reads the rows back: the ``--workers`` sweep
parent (:mod:`repro.experiments.distributed`) and the experiment gateway
(:mod:`repro.gateway.app`).  The two differ only in what a row's payload
decodes to (the ``prepare`` callable) and in when a host stops: a sweep
host leaves once the board holds nothing unfinished, a gateway host once
its gateway cuts the *lifeline* (a pipe whose write end the gateway
holds, so it is cut by a drain or by the gateway's death alike).

:class:`HostFleet` is the supervision both share: fork hosts, reap them
with ``os.waitpid``, take back a dead host's cells at once
(:meth:`~repro.experiments.board.JobBoard.release`), and replace lost
hosts within a budget of ``workers * max_attempts``.  The sweep parent
drives a fleet from its own loop; the gateway forks a *keeper*
(:func:`keep_hosts`) that drives one until the lifeline is cut.

Fork rules.  A process forks only while it has one thread: the sweep
parent, and the gateway's keeper, itself forked by the gateway before it
starts any thread.  A fork carries no open SQLite connection (the
supervisor closes its board around each fork; a host opens its own).  A
host leaves through ``os._exit``, never through its parent's stack or
exit handlers.  No host is started by ``exec``: it inherits the cell
runner, the protocol registry (families registered at run time
included) and the modules its parent has already imported.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.board import JobBoard, encode_outcome
from repro.experiments.forked import Forked
from repro.experiments.parallel import CellRunner, SweepCell, _execute_cell

__all__ = ["HostFleet", "host_loop", "keep_hosts"]

#: Decodes one board payload into the cell and the runner that computes it.
Prepare = Callable[[Dict[str, Any]], Tuple[SweepCell, CellRunner]]

# ----------------------------------------------------------------------
# the host
# ----------------------------------------------------------------------


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


def _cut(lifeline: Optional[int], timeout: float = 0.0) -> bool:
    """Whether the lifeline is cut, waiting up to ``timeout`` seconds.

    Nothing is ever written to a lifeline, so it reads as ready only
    once every write end is closed.  Without one, this just sleeps.
    """
    if lifeline is None:
        if timeout:
            time.sleep(timeout)
        return False
    return bool(select.select([lifeline], [], [], timeout)[0])


def _ring(doorbell: Optional[int]) -> None:
    # One byte wakes the reader; a full pipe already holds a wake-up,
    # and a reader that is gone needs none.
    if doorbell is not None:
        try:
            os.write(doorbell, b"\0")
        except OSError:
            pass


def host_loop(
    board_path: str,
    prepare: Prepare,
    lease_seconds: float,
    poll_seconds: float,
    worker_id: str,
    parent_pid: int,
    fault_hook: Optional[Callable[[SweepCell, int], None]] = None,
    until_empty: bool = True,
    lifeline: Optional[int] = None,
    doorbell: Optional[int] = None,
    temp_workdir: Optional[str] = None,
) -> None:
    """One host: claim a row, compute it under a heartbeat, write its outcome.

    The outcome goes into the row in the same statement that marks it
    done or failed; a byte on ``doorbell`` (when given) then tells the
    reader to look.  The host claims no more once ``parent_pid`` is no
    longer its parent (its supervisor is gone: nobody would read what it
    computes) or ``lifeline`` is cut, and, with ``until_empty``, once
    the board holds no unfinished cell.  An orphaned host then removes
    ``temp_workdir``, the temp dir the dead parent would have removed
    (``None`` for a kept workdir).

    ``fault_hook(cell, attempt)`` runs right after each claim, outside
    the cell's fault isolation: raising there, or ``os._exit``, kills
    the host.  The host opens one board connection; its heartbeat
    thread uses it while a cell runs, the only time the host thread
    leaves it alone.
    """
    board = JobBoard(board_path, cross_thread=True)
    try:
        while os.getppid() == parent_pid and not _cut(lifeline):
            claimed = board.claim_payload(worker_id, lease_seconds)
            if claimed is None:
                if until_empty and board.unfinished() == 0:
                    break
                _cut(lifeline, poll_seconds)
                continue
            index, payload, attempt = claimed
            cell, runner = prepare(payload)
            if fault_hook is not None:
                # The injection seam: a hook that calls os._exit (or
                # raises) here simulates a host dying mid-cell.
                fault_hook(cell, attempt)
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(board, worker_id, index, lease_seconds, stop),
                daemon=True,
            )
            beat.start()
            try:
                outcome = _execute_cell(cell, runner)
            finally:
                stop.set()
                beat.join()
            finish = board.complete if outcome.ok else board.fail
            finish(index, encode_outcome(outcome))
            _ring(doorbell)
    finally:
        board.close()
    if temp_workdir is not None and os.getppid() != parent_pid:
        # A sibling host may get here too; removing twice is harmless.
        shutil.rmtree(temp_workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# supervision
# ----------------------------------------------------------------------

class HostFleet:
    """Forked hosts on one board: spawn, reap, replace within a budget.

    The fleet holds its supervisor's own board connection in
    :attr:`board`, closed around every fork.  Each host runs
    ``body(worker_id, parent_pid)``; each one forked and reaped is
    recorded on the board (:meth:`~repro.experiments.board.JobBoard.hosts`).

    Args:
        board_path: The board the hosts serve.
        body: What a forked host runs.
        workers: Hosts to hold; also sizes the restart budget.
        max_attempts: Claim ceiling per cell; the fleet replaces at most
            ``workers * max_attempts`` lost hosts in its life.
        emit: Lifecycle sink, ``emit(kind, payload)``: ``worker_started``,
            ``worker_stopped``, ``worker_lost`` and ``cell_retried``.
    """

    def __init__(
        self,
        board_path: str,
        body: Callable[[str, int], None],
        workers: int,
        max_attempts: int,
        emit: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> None:
        self.board_path = board_path
        self.board = JobBoard(board_path)
        self.max_attempts = max_attempts
        self.restarts_left = workers * max_attempts
        self.procs: Dict[str, Forked] = {}
        self._body = body
        self._emit = emit if emit is not None else lambda kind, payload: None
        self._next = 0

    def spawn(self, count: int) -> None:
        """Fork ``count`` hosts."""
        # Fork with this process's board connection closed: a host that
        # inherited it would share SQLite's per-process lock state for
        # the board with its supervisor.
        self.board.close()
        started = []
        for _ in range(count):
            worker_id = f"host-{self._next}"
            self._next += 1
            proc = Forked(partial(self._body, worker_id, os.getpid()))
            self.procs[worker_id] = proc
            started.append((worker_id, proc.pid))
            self._emit("worker_started", {"worker": worker_id, "pid": proc.pid})
        self.board = JobBoard(self.board_path)
        for worker_id, pid in started:
            self.board.host_started(worker_id, pid)

    def _ended(self, worker_id: str) -> None:
        proc = self.procs.pop(worker_id)
        self.board.host_stopped(worker_id)
        kind = "worker_stopped" if proc.exitcode == 0 else "worker_lost"
        self._emit(kind, {"worker": worker_id, "exitcode": proc.exitcode})

    def reap(self, respawn: bool = True) -> None:
        """Reap exited hosts, take back their cells, replace lost ones.

        A host's cells go back to pending at once (or fail as
        ``WorkerLost`` at the attempt ceiling): a reaped host will never
        finish them.  With ``respawn``, each host that died (exit code
        not 0) is replaced while the restart budget lasts.
        """
        lost = 0
        for worker_id, proc in list(self.procs.items()):
            if proc.is_alive():
                continue
            lost += proc.exitcode != 0
            self._ended(worker_id)
            retried, _exhausted = self.board.release(worker_id, self.max_attempts)
            for idx, attempts in retried:
                self._emit("cell_retried", {"index": idx, "attempts": attempts})
        replace = min(lost, self.restarts_left) if respawn else 0
        if replace:
            self.restarts_left -= replace
            self.spawn(replace)

    def keep_one(self) -> None:
        """With no host left, fork one while the budget lasts.

        With the budget spent, the board's unfinished cells fail as
        ``WorkerLost`` instead of waiting for a host that never comes.
        """
        if self.procs:
            return
        if self.restarts_left > 0:
            self.restarts_left -= 1
            self.spawn(1)
        else:
            self.board.lose_unfinished()

    def stop(self, timeout: float) -> None:
        """Give the hosts ``timeout`` seconds to exit, SIGTERM the rest, reap all."""
        deadline = time.monotonic() + timeout
        for proc in self.procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(10.0)
        # Every host is reaped before the board is written to.
        for worker_id in list(self.procs):
            self._ended(worker_id)


def keep_hosts(
    board_path: str,
    body: Callable[[str, int], None],
    workers: int,
    max_attempts: int,
    lifeline: int,
    poll_seconds: float,
) -> None:
    """A keeper: hold ``workers`` hosts on a board until ``lifeline`` is cut.

    Runs in its own forked process, which starts no thread, so it may
    fork hosts at any time.  Each poll it reaps and replaces hosts (see
    :meth:`HostFleet.reap`) and takes back lapsed leases; once the
    restart budget is spent and no host is left, it fails every
    unfinished cell as ``WorkerLost`` (:meth:`HostFleet.keep_one`).
    When the lifeline is cut, the hosts see it too: each finishes the
    cell in hand and leaves, and the keeper reaps them all, then
    returns.  SIGTERM makes it stop the hosts at once instead.  It
    ignores SIGINT, as its hosts do: a Ctrl-C reaches the whole process
    group, and the gateway drains on its own.
    """
    stopping = []
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))

    def host(worker_id: str, parent_pid: int) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        body(worker_id, parent_pid)

    fleet = HostFleet(board_path, host, workers, max_attempts)
    try:
        fleet.spawn(workers)
        while not stopping and not _cut(lifeline, poll_seconds):
            fleet.reap()
            fleet.board.expire_leases(max_attempts)
            fleet.keep_one()
        while fleet.procs and not stopping:
            fleet.reap(respawn=False)
            time.sleep(poll_seconds)
        fleet.stop(0.0)
    finally:
        fleet.board.close()
