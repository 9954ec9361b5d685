"""SQLite-backed run store for concurrent writers and large sweeps.

:class:`SQLiteRunStore` keeps the exact :class:`~repro.results.store.RunStore`
semantics — last-wins fingerprint index, first-appended iteration order,
canonical-JSON record payloads, corruption-tolerant loads — over a single
SQLite file instead of JSONL.  What SQLite buys:

* **Concurrent writers.**  The database runs in WAL mode, so several
  processes can append into one store while readers load a consistent
  snapshot.  SQLite serializes the writes; ``busy_timeout`` absorbs lock
  contention.  No sweep needs this of its own store: a ``--workers``
  sweep appends from its parent only (its hosts report to the job
  board), and the gateway appends from its own process.
* **Transactional appends.**  Each append is one committed transaction
  with ``synchronous=FULL`` — the durability contract matches the JSONL
  store's per-line fsync, and a killed writer can never leave a torn
  record, only a cleanly rolled-back one.  ``corrupt_lines`` therefore
  counts only payloads damaged *at rest* (bit rot, manual edits), never
  interrupted appends.
* **Indexed scale.**  Records live in a ``run_records`` table with a
  fingerprint index, and :meth:`SQLiteRunStore.compact` reclaims
  superseded generations in place — appends never rewrite the file the
  way JSONL compaction must.  (Opening still materializes the in-memory
  last-wins index, matching the JSONL store's access pattern.)

Rows append with a monotonically increasing ``seq``, and the load scans
in ``seq`` order — exactly the JSONL line order — so last-wins resolution
is bit-identical across backends.
"""

from __future__ import annotations

import json
import os
import sqlite3

from repro.errors import ConfigurationError, ReproError
from repro.results.fingerprint import canonical_dumps
from repro.results.record import RunRecord
from repro.results.store import BaseRunStore, PathLike

__all__ = ["SQLiteRunStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS run_records (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS run_records_fingerprint
    ON run_records (fingerprint);
"""


class SQLiteRunStore(BaseRunStore):
    """Run-record store over one WAL-mode SQLite file.

    Drop-in for :class:`~repro.results.store.RunStore`: same constructor
    shape, same index/read/append/compact surface, same context-manager
    lifecycle.  Open it through
    :func:`~repro.results.backends.open_store` to pick the backend by
    name or by sniffing an existing file.

    Args:
        path: The SQLite file backing the store (created on open, along
            with parent directories).
        busy_timeout: Seconds a statement waits on another writer's lock
            before failing — the concurrency knob for multi-process
            appends.
    """

    backend = "sqlite"

    def __init__(self, path: PathLike, busy_timeout: float = 30.0) -> None:
        super().__init__(path)
        self._busy_timeout = busy_timeout
        self._conn: sqlite3.Connection | None = None
        try:
            self._connect()
            self._load()
        except sqlite3.DatabaseError as exc:
            self.close()
            raise ReproError(
                f"cannot open {self.path} as a SQLite run store: {exc}"
            ) from exc

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            # isolation_level=None puts the connection in autocommit mode:
            # every INSERT is its own durable transaction, mirroring the
            # JSONL store's append-then-fsync contract.
            # check_same_thread=False lets a multi-threaded owner (the
            # experiment gateway's shared store) use one connection from
            # worker threads; callers doing so must serialize access
            # themselves, as the gateway does with its store lock.
            conn = sqlite3.connect(
                self.path,
                timeout=self._busy_timeout,
                isolation_level=None,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.executescript(_SCHEMA)
            self._conn = conn
        return self._conn

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _load(self) -> None:
        rows = self._connect().execute(
            "SELECT payload FROM run_records ORDER BY seq"
        )
        for (payload,) in rows:
            try:
                record = RunRecord.from_dict(json.loads(payload))
            except (ValueError, TypeError, ConfigurationError):
                # At-rest damage (transactions rule out torn appends):
                # count and skip, same as a corrupt JSONL line.
                self.corrupt_lines += 1
                continue
            self._insert(record)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Durably append one record and index it.

        One autocommitted ``INSERT`` in WAL mode with
        ``synchronous=FULL``: committed means on disk, and concurrent
        appenders from other processes serialize on the write lock.
        """
        self._check_record(record)
        line = canonical_dumps(record.to_dict())
        try:
            self._connect().execute(
                "INSERT INTO run_records (fingerprint, payload) VALUES (?, ?)",
                (record.fingerprint, line),
            )
        except sqlite3.Error as exc:
            raise ReproError(
                f"cannot append to run store {self.path}: {exc}"
            ) from exc
        self._insert(record)

    def compact(self) -> int:
        """Rewrite the table with only the current records, then VACUUM.

        Drops superseded last-wins generations and corrupt rows in one
        transaction (crash-safe: either the old table or the compacted
        one, never a mix), keeping first-appended order.

        Returns:
            Number of rows dropped from the table.
        """
        conn = self._connect()
        try:
            (before,) = conn.execute(
                "SELECT COUNT(*) FROM run_records"
            ).fetchone()
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute("DELETE FROM run_records")
                for record in self.records():
                    conn.execute(
                        "INSERT INTO run_records (fingerprint, payload) "
                        "VALUES (?, ?)",
                        (record.fingerprint, canonical_dumps(record.to_dict())),
                    )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("VACUUM")
        except sqlite3.Error as exc:
            raise ReproError(
                f"cannot compact run store {self.path}: {exc}"
            ) from exc
        self.corrupt_lines = 0
        return before - len(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the database connection; the loaded index stays usable."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
