"""The job board: a SQLite table of sweep cells with a claim/lease protocol.

One WAL-mode SQLite file holds a row per cell.  A host takes the lowest
pending cell atomically with ``claim_payload()``, which stamps a lease
expiry, extends the lease with ``heartbeat()`` while the cell computes,
and reports it with ``complete()`` or ``fail()``, which set the row's
state, its encoded outcome (:func:`encode_outcome`) and a finish stamp
in one statement; a reader takes the finished rows with
``finished_since()`` and decodes them with :func:`decode_outcome`.  A
lapsed lease (``expire_leases()``), or the lease of a host found dead
(``release()``), goes back to pending, bounded by an attempt budget; a
cell at the ceiling is failed with a ``WorkerLost`` outcome in its row,
so every reader decodes it like any other.  A second table lists the
live hosts, for health checks.

Everything that runs cells on the board imports it from here: the hosts
and their supervision (:mod:`repro.experiments.hosts`), the ``--workers``
sweep executor (:mod:`repro.experiments.distributed`, which re-exports
:class:`JobBoard`) and the experiment gateway, which never loads that
executor.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro._record import asdict
from repro.errors import ConfigurationError, ReproError
from repro.experiments.parallel import CellError, CellOutcome, SweepCell
from repro.metrics.stats import RunSummary

__all__ = [
    "CELL_STATES",
    "LEASE_SECONDS",
    "MAX_ATTEMPTS",
    "JobBoard",
    "decode_outcome",
    "encode_outcome",
    "lost_outcome",
]

#: How long a claim stays valid without a heartbeat (seconds).
LEASE_SECONDS = 30.0

#: Claims of one cell before it is declared lost (``WorkerLost``).
MAX_ATTEMPTS = 3

#: Lifecycle of one board cell.  ``pending`` -> ``claimed`` (leased to a
#: host) -> ``done`` / ``failed``; a lapsed lease, or a dead holder,
#: moves ``claimed`` back to ``pending`` until the attempt budget runs
#: out.
CELL_STATES = ("pending", "claimed", "done", "failed")

#: The ``cells`` table as first released.  ``not_before`` is no longer
#: read or written; boards keep the column.
_BOARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    idx INTEGER PRIMARY KEY,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_expiry REAL,
    not_before REAL NOT NULL DEFAULT 0
)
"""

#: The live hosts: one row from a host's fork to its reaping.
_HOSTS_SCHEMA = """
CREATE TABLE IF NOT EXISTS hosts (
    worker TEXT PRIMARY KEY,
    pid INTEGER NOT NULL
)
"""

#: Columns added since, which opening a board adds when its file lacks
#: them: a finished cell's encoded outcome and its finish stamp.  The
#: first opener adds them (a sweep's parent, or the gateway before its
#: workers start), so no two processes race to.
_ADDED_COLUMNS = {"outcome": "TEXT", "finished": "INTEGER"}


def encode_outcome(outcome: CellOutcome) -> str:
    """A cell's outcome as the JSON text its board row carries."""
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


def decode_outcome(cell: SweepCell, encoded: Optional[str]) -> CellOutcome:
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


def lost_outcome(cell: Optional[SweepCell], attempts: int) -> CellOutcome:
    """The ``WorkerLost`` outcome of a cell whose retry budget ran out."""
    error = CellError(
        exc_type="WorkerLost",
        message=(
            f"the cell was claimed {attempts} time(s) but no host delivered "
            "a readable outcome (host death or a damaged outcome on the "
            "board); retry budget exhausted"
        ),
        traceback="",
    )
    return CellOutcome(cell=cell, summary=None, error=error, elapsed=0.0)


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
            # NORMAL sync keeps claims cheap without risking record data,
            # and a committed row still survives a killed host.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_BOARD_SCHEMA)
            self._conn.execute(_HOSTS_SCHEMA)
            present = {
                row[1] for row in self._conn.execute("PRAGMA table_info(cells)")
            }
            for name, kind in _ADDED_COLUMNS.items():
                if name not in present:
                    self._conn.execute(f"ALTER TABLE cells ADD COLUMN {name} {kind}")
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

        The sweep executor stores bare :class:`SweepCell` dicts (see
        :meth:`populate`); the experiment gateway stores richer payloads
        (cell + owning experiment + fingerprint + spec).  A host hands
        the payload :meth:`claim_payload` returns to its own decoder.
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

    def claim_payload(
        self, worker: str, lease_seconds: float
    ) -> Optional[tuple[int, Dict[str, Any], int]]:
        """Atomically lease the lowest pending cell to ``worker``.

        Returns:
            ``(index, payload, attempt)`` — the cell's JSON payload, and
            the attempt this claim counts, starting at 1 — or ``None``
            when nothing is pending (empty board, or every cell leased
            or finished).
        """
        now = time.time()
        with self._transaction():
            rows = self._query(
                "SELECT idx, payload, attempts FROM cells "
                "WHERE state = 'pending' ORDER BY idx LIMIT 1"
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

    def complete(self, index: int, outcome: Optional[str] = None) -> None:
        """Mark a cell done (terminal; idempotent across duplicate runs).

        ``outcome`` is the encoded result, stored in the cell's row with
        the state; :meth:`finished_since` reads it back.
        """
        self._finish(index, "done", outcome)

    def fail(self, index: int, outcome: Optional[str] = None) -> None:
        """Mark a cell failed — a *deterministic* error, never retried."""
        self._finish(index, "failed", outcome)

    def _finish(self, index: int, state: str, outcome: Optional[str]) -> None:
        # The stamp exceeds every stamp on the board, requeued rows' stale
        # ones included, so it grows with each finish in commit order.
        self._query(
            "UPDATE cells SET state = ?, outcome = ?, "
            "finished = (SELECT IFNULL(MAX(finished), 0) + 1 FROM cells) "
            "WHERE idx = ?",
            (state, outcome, index),
        )

    def requeue(self, index: int) -> None:
        """Force a cell back to pending, dropping any outcome it holds.

        Its finish stamp stays, so the next stamp handed out still
        exceeds every one a :meth:`finished_since` reader has seen.
        """
        self._query(
            "UPDATE cells SET state = 'pending', worker = NULL, "
            "lease_expiry = NULL, outcome = NULL WHERE idx = ?",
            (index,),
        )

    def finished_since(self, stamp: int) -> list[tuple[int, int, int, Optional[str]]]:
        """The cells finished after finish stamp ``stamp``, in finish order.

        Returns:
            ``(stamp, index, attempts, outcome)`` rows of done and failed
            cells.  A reader that passes back the last stamp it got
            (``0`` at first) sees every finish exactly once, including
            a cell that finishes again after a requeue.
        """
        return self._query(
            "SELECT finished, idx, attempts, outcome FROM cells "
            "WHERE finished > ? AND state IN ('done', 'failed') "
            "ORDER BY finished",
            (stamp,),
        )

    def expire_leases(
        self, max_attempts: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Take back lapsed leases: requeue, or exhaust.

        A claimed cell whose lease expired was held by a dead (or
        wedged) host.  See :meth:`_take_back`.

        Returns:
            ``(retried, exhausted)`` lists of ``(index, attempts)``.
        """
        return self._take_back(
            "lease_expiry < ?", (time.time(),), max_attempts
        )

    def release(
        self, worker: str, max_attempts: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Take back every cell ``worker`` holds (its host was reaped).

        A dead host's lease need not lapse first: nobody will extend or
        finish it.  See :meth:`_take_back`.

        Returns:
            ``(retried, exhausted)`` lists of ``(index, attempts)``.
        """
        return self._take_back("worker = ?", (worker,), max_attempts)

    def _take_back(
        self, where: str, params: Sequence[Any], max_attempts: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        # Cells with attempts left go back to pending at once; cells at
        # the ceiling fail with a WorkerLost outcome in their row.
        retried: list[tuple[int, int]] = []
        exhausted: list[tuple[int, int]] = []
        with self._transaction():
            rows = self._query(
                f"SELECT idx, attempts FROM cells "
                f"WHERE state = 'claimed' AND {where}",
                params,
            )
            for idx, attempts in rows:
                if attempts >= max_attempts:
                    self.fail(idx, encode_outcome(lost_outcome(None, attempts)))
                    exhausted.append((idx, attempts))
                else:
                    self.requeue(idx)
                    retried.append((idx, attempts))
        return retried, exhausted

    def lose_unfinished(self) -> None:
        """Fail every pending or claimed cell with a ``WorkerLost`` outcome.

        For a board no host will ever serve again (the restart budget is
        spent): its cells end as failures instead of waiting forever.
        """
        with self._transaction():
            for idx, attempts in self._query(
                "SELECT idx, attempts FROM cells "
                "WHERE state IN ('pending', 'claimed')"
            ):
                self.fail(idx, encode_outcome(lost_outcome(None, attempts)))

    # ------------------------------------------------------------------
    # hosts
    # ------------------------------------------------------------------

    def host_started(self, worker: str, pid: int) -> None:
        """Record a forked host (its supervisor calls this)."""
        self._query(
            "INSERT OR REPLACE INTO hosts (worker, pid) VALUES (?, ?)",
            (worker, pid),
        )

    def host_stopped(self, worker: str) -> None:
        """Forget a host once its supervisor has reaped it."""
        self._query("DELETE FROM hosts WHERE worker = ?", (worker,))

    def forget_hosts(self) -> None:
        """Forget every host (a new supervisor starts on a reused board)."""
        self._query("DELETE FROM hosts")

    def hosts(self) -> list[tuple[str, int, Optional[int], Optional[float]]]:
        """The live hosts, with the cell each holds.

        Returns:
            ``(worker, pid, index, lease_expiry)`` rows in worker order;
            ``index`` and ``lease_expiry`` are ``None`` for an idle host.
        """
        return self._query(
            "SELECT hosts.worker, hosts.pid, cells.idx, cells.lease_expiry "
            "FROM hosts LEFT JOIN cells "
            "ON cells.worker = hosts.worker AND cells.state = 'claimed' "
            "ORDER BY hosts.worker, cells.idx"
        )

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

    def last_stamp(self) -> int:
        """The newest finish stamp on the board (``0`` when none).

        A reader that starts here sees only cells finished from now on.
        """
        [(value,)] = self._query("SELECT IFNULL(MAX(finished), 0) FROM cells")
        return value

    def close(self) -> None:
        """Close this participant's connection (the board file persists)."""
        self._conn.close()
