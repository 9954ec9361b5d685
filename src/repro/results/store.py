"""Append-only stores of run records, indexed by cell fingerprint.

Design:

* **Append-only JSONL.**  One canonical-JSON record per line.  Appends are
  a single buffered write followed by flush + fsync, so a record is either
  durably on disk or not there at all; a sweep killed mid-cell loses at
  most the line being written.
* **Fingerprint index.**  Loading builds a ``fingerprint -> RunRecord``
  map (last record wins, so re-running a cell supersedes its old entry
  without rewriting the file).
* **Corruption-tolerant reads.**  A line that fails JSON decoding or
  record validation — the classic truncated-last-line left by a kill — is
  counted in :attr:`RunStore.corrupt_lines` and skipped; the affected cell
  simply reruns and appends a fresh record.

The JSONL store is deliberately *not* a database: a sweep grid tops out at
thousands of cells, each record is ~1 KB, and the whole index fits in
memory.  JSONL keeps every record greppable, diffable, and recoverable
with a text editor.  :class:`~repro.results.sqlite_store.SQLiteRunStore`
shares the :class:`BaseRunStore` index semantics over a WAL-mode SQLite
file; both sit behind :func:`~repro.results.backends.open_store`.  Only
the sweep parent and the gateway process append to a store: a
``--workers`` host reports its outcomes to the job board.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Iterator, Optional, Union

from repro.errors import ConfigurationError, ReproError
from repro.results.fingerprint import canonical_dumps
from repro.results.record import RunRecord

__all__ = ["BaseRunStore", "RunStore", "write_json_atomic"]

PathLike = Union[str, os.PathLike]


def write_json_atomic(path: PathLike, payload: dict) -> None:
    """Write ``payload`` as pretty JSON via a same-directory temp file.

    ``os.replace`` makes the swap atomic on POSIX: readers see either the
    old file or the complete new one, never a partial write.  Used for
    whole-document outputs (benchmark results, exports) as the counterpart
    of the store's per-line appends.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class BaseRunStore:
    """Shared last-wins fingerprint index behind every store backend.

    Concrete backends (:class:`RunStore` for JSONL,
    :class:`~repro.results.sqlite_store.SQLiteRunStore` for SQLite) own
    the durable medium — :meth:`append` and :meth:`compact` — while this
    base holds the index semantics every backend must agree on: records
    keyed by fingerprint, last write wins, first-appended iteration
    order, and :attr:`corrupt_lines` counting unreadable rows.

    Attributes:
        path: The file backing the store.
        backend: Registry name of the backend (``"jsonl"``/``"sqlite"``).
        corrupt_lines: Rows skipped as unreadable during the load.
    """

    backend = "abstract"

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._index: dict[str, RunRecord] = {}
        self._order: list[str] = []
        self.corrupt_lines = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def _insert(self, record: RunRecord) -> None:
        if record.fingerprint not in self._index:
            self._order.append(record.fingerprint)
        self._index[record.fingerprint] = record

    def _check_record(self, record: RunRecord) -> None:
        if not isinstance(record, RunRecord):
            raise ConfigurationError(
                f"{type(self).__name__}.append takes a RunRecord, "
                f"got {type(record).__name__}"
            )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[RunRecord]:
        """The stored record for ``fingerprint``, or ``None``."""
        return self._index.get(fingerprint)

    def records(self) -> list[RunRecord]:
        """All current records, in first-appended order (last write wins)."""
        return [self._index[fp] for fp in self._order]

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Durably append one record and index it (backend-specific)."""
        raise NotImplementedError

    def extend(self, records: Iterable[RunRecord]) -> None:
        """Append several records (each individually durable)."""
        for record in records:
            self.append(record)

    def compact(self) -> int:
        """Rewrite the medium keeping only current records (backend-specific)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources; the loaded index stays usable."""

    def __enter__(self) -> "BaseRunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(path={self.path!r}, records={len(self)}, "
            f"corrupt_lines={self.corrupt_lines})"
        )


class RunStore(BaseRunStore):
    """Persistent, resumable collection of :class:`RunRecord` objects.

    Usable as a context manager; :meth:`close` releases the append handle
    (records stay loaded).  Opening a nonexistent path starts an empty
    store whose file materializes on first append.

    Args:
        path: The JSONL file backing the store.  Parent directories are
            created eagerly so the first append cannot fail on a missing
            directory mid-sweep.
    """

    backend = "jsonl"

    def __init__(self, path: PathLike) -> None:
        super().__init__(path)
        self._handle = None
        if os.path.exists(self.path):
            self._load()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            raw = fh.read()
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = RunRecord.from_dict(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError, ConfigurationError):
                # Truncated tail of a killed append, or garbage: skip the
                # line — the cell it held will simply be recomputed.
                self.corrupt_lines += 1
                continue
            self._insert(record)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Durably append one record and index it.

        The line is flushed and fsync'd before the index updates, so a
        record the in-memory index reports is guaranteed to be on disk.
        """
        self._check_record(record)
        if self._handle is None:
            self._handle = self._open_for_append()
        line = canonical_dumps(record.to_dict())
        try:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ReproError(f"cannot append to run store {self.path}: {exc}") from exc
        self._insert(record)

    def _open_for_append(self):
        # A file killed mid-append can end in a torn line with no trailing
        # newline; appending straight after it would weld the fresh record
        # onto the garbage and lose both.  Terminate the tail first.
        needs_newline = False
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
        except FileNotFoundError:
            pass
        handle = open(self.path, "a", encoding="utf-8")
        if needs_newline:
            handle.write("\n")
        return handle

    def compact(self) -> int:
        """Atomically rewrite the file with only the current records.

        Superseded appends (older last-wins generations) and corrupt
        lines are dropped; the surviving records keep their
        first-appended order, so a reload reads back bit-identically.
        The rewrite goes through a same-directory temp file and
        ``os.replace``, so a crash mid-compaction leaves the old file
        intact.

        Returns:
            Number of lines dropped from the file.
        """
        self.close()
        before = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                before = sum(1 for line in fh.read().split(b"\n") if line.strip())
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for record in self.records():
                    fh.write(canonical_dumps(record.to_dict()) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.corrupt_lines = 0
        return before - len(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the append handle; the loaded index stays usable."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
