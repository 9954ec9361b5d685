"""The job board: a SQLite table of sweep cells with a claim/lease protocol.

One WAL-mode SQLite file holds a row per cell.  A worker takes the
lowest pending cell atomically with ``claim()``, which stamps a lease
expiry, extends the lease with ``heartbeat()`` while the cell computes,
and reports it with ``complete()`` or ``fail()``, which set the row's
state, its encoded outcome and a finish stamp in one statement; a
reader takes the finished rows with ``finished_since()``.  A lapsed
lease goes back to pending, bounded by an attempt budget
(``expire_leases()``).

Both users of the board import it from here: the ``--workers`` sweep
executor (:mod:`repro.experiments.distributed`, which re-exports
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
from repro.experiments.parallel import SweepCell

__all__ = ["CELL_STATES", "JobBoard"]

#: Lifecycle of one board cell.  ``pending`` (claimable once its
#: ``not_before`` time has passed) -> ``claimed`` (leased to a worker)
#: -> ``done`` / ``failed``; lease expiry moves ``claimed`` back to
#: ``pending`` until the attempt budget runs out.
CELL_STATES = ("pending", "claimed", "done", "failed")

#: The ``cells`` table as first released.
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

#: Columns added since, which opening a board adds when its file lacks
#: them: a finished cell's encoded outcome and its finish stamp.  The
#: first opener adds them (a sweep's parent, or the gateway before its
#: workers start), so no two processes race to.
_ADDED_COLUMNS = {"outcome": "TEXT", "finished": "INTEGER"}


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

    def requeue(self, index: int, not_before: float = 0.0) -> None:
        """Force a cell back to pending, dropping any outcome it holds.

        Its finish stamp stays, so the next stamp handed out still
        exceeds every one a :meth:`finished_since` reader has seen.
        """
        self._query(
            "UPDATE cells SET state = 'pending', worker = NULL, "
            "lease_expiry = NULL, outcome = NULL, not_before = ? "
            "WHERE idx = ?",
            (not_before, index),
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
