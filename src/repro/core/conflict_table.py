"""Conflict bookkeeping for SCC.

Two structures:

* :class:`AccessIndex` — the global, transaction-level view of who has
  read and written which pages (cumulative across all shadows; shadows of
  a transaction replay the same program, so transaction-level sets are
  well defined prefixes).  It answers the detection queries of the Read
  and Write Rules.
* :class:`ConflictTable` — per *reader* transaction: for each uncommitted
  *writer* it conflicts with, the position of the reader's **first** read
  of any page that writer wrote.  That one number is the conflict's
  *blocking point*: where a speculative shadow accounting for the
  conflict must block, and the key LBFO ranks conflicts by (the paper's
  Figures 5 and 6: a newly discovered earlier conflict page moves the
  blocking point forward and forces a shadow replacement).  Which pages
  conflict is not kept — a later page of a known writer changes nothing.

The access index is a *precomputed index*: every page keeps its reader
and writer sets and every transaction its page maps, maintained
incrementally on each access, so the Read/Write Rule detection queries
are dictionary probes rather than scans over active transactions.  The
SCC step loop (:mod:`repro.core.shadow_pool`) probes and updates the
backing dicts in place on its per-access path; the methods are the API
for everything else.
"""

from __future__ import annotations

from heapq import nsmallest
from typing import NamedTuple, Optional

from repro.errors import InvariantViolation

#: Shared empty tuple returned by the view accessors for unindexed pages —
#: avoids allocating an empty container per probe.
_EMPTY: tuple = ()


class ConflictRecord(NamedTuple):
    """One directed conflict ``writer -> reader`` (reader's perspective).

    The table stores only the blocking point; :meth:`ConflictTable.records`
    builds records on demand for the replacement policies that rank by
    more than it.

    Attributes
    ----------
    writer : int
        Transaction id whose commit would invalidate the reader.
    first_pos : int
        Reader's earliest program position reading any page the writer
        wrote: the blocking point.
    """

    writer: int
    first_pos: int


class ConflictTable:
    """Per-transaction map from uncommitted writer to blocking point.

    One ``{writer: first_pos}`` dict, in detection order.  :meth:`record`
    reports a change only when a blocking point moves — a new writer or a
    strictly earlier position — which is all that can change LBFO
    coverage.  :meth:`earliest` selects that coverage without sorting the
    table for a finite budget; the unbounded (SCC-CB) order is a sort
    cached until a blocking point moves or a writer leaves.
    """

    __slots__ = ("_first", "_order")

    def __init__(self) -> None:
        self._first: dict[int, int] = {}
        self._order: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self._first)

    def __contains__(self, writer: int) -> bool:
        return writer in self._first

    def writers(self) -> list[int]:
        """Return all conflicting writer ids, in detection order."""
        return list(self._first)

    def record(self, writer: int, page: int, position: int) -> bool:
        """Record that the reader reads a page ``writer`` wrote.

        Parameters
        ----------
        writer : int
            Uncommitted transaction whose write conflicts.
        page : int
            The conflicting page (not stored: only the earliest position
            matters).
        position : int
            The reader's first read position of ``page``.

        Returns
        -------
        bool
            ``True`` if the blocking point moved: ``writer`` is new, or
            ``position`` is strictly earlier than its recorded one.
        """
        first = self._first
        prior = first.get(writer)
        if prior is not None and prior <= position:
            return False
        first[writer] = position
        self._order = None
        return True

    def blocking_point(self, writer: int) -> Optional[int]:
        """Return the reader's first read of ``writer``'s pages, or ``None``."""
        return self._first.get(writer)

    def remove_writer(self, writer: int) -> bool:
        """Drop the conflict with ``writer`` (it committed).  Idempotent.

        Returns
        -------
        bool
            ``True`` if a record was actually removed.
        """
        if self._first.pop(writer, None) is None:
            return False
        self._order = None
        return True

    def earliest(self, budget: Optional[int]) -> list[int]:
        """Return the writers with the earliest blocking points (LBFO).

        Ordered by ``(first_pos, writer)``.  A budget of one is a ``min``
        over the table, any other finite budget a bounded heap selection,
        and ``None`` (unbounded) a full sort cached until the table
        changes.

        Parameters
        ----------
        budget : int or None
            How many writers to return; ``None`` returns all of them.

        Returns
        -------
        list of int
            Writer ids, earliest blocking point first.  For ``None`` this
            is the cached order itself: callers must not mutate it.
        """
        first = self._first
        if budget is None:
            order = self._order
            if order is None:
                order = self._order = [
                    writer for _, writer in sorted(zip(first.values(), first))
                ]
            return order
        if budget == 1:
            return [min(zip(first.values(), first))[1]] if first else []
        heads = nsmallest(budget, zip(first.values(), first))
        return [writer for _, writer in heads]

    def records(self) -> list[ConflictRecord]:
        """Return all records, ordered by blocking point then writer id."""
        first = self._first
        return [
            ConflictRecord(writer, first_pos)
            for first_pos, writer in sorted(zip(first.values(), first))
        ]


class AccessIndex:
    """Global transaction-level access tracking for conflict detection.

    Maintains four precomputed indices — page -> readers, page -> writers,
    transaction -> first-read positions, transaction -> written pages —
    updated incrementally on every access so Read/Write Rule detection is
    a dictionary probe per access, never a scan over transactions.
    """

    __slots__ = ("_page_readers", "_page_writers", "_txn_reads", "_txn_writes")

    def __init__(self) -> None:
        self._page_readers: dict[int, set[int]] = {}
        self._page_writers: dict[int, set[int]] = {}
        self._txn_reads: dict[int, dict[int, int]] = {}  # txn -> page -> first pos
        self._txn_writes: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def add_read(self, txn_id: int, page: int, position: int) -> None:
        """Record that ``txn_id``'s program reads ``page`` at ``position``.

        Parameters
        ----------
        txn_id : int
            The reading transaction.
        page : int
            The page read.
        position : int
            Program position of the read; only the earliest observed
            position per page is kept.
        """
        reads = self._txn_reads.get(txn_id)
        if reads is None:
            reads = self._txn_reads[txn_id] = {}
        prior = reads.get(page)
        if prior is None or position < prior:
            reads[page] = position
        readers = self._page_readers.get(page)
        if readers is None:
            self._page_readers[page] = {txn_id}
        else:
            readers.add(txn_id)

    def add_write(self, txn_id: int, page: int) -> None:
        """Record that ``txn_id``'s program writes ``page``."""
        writes = self._txn_writes.get(txn_id)
        if writes is None:
            self._txn_writes[txn_id] = {page}
        else:
            writes.add(page)
        writers = self._page_writers.get(page)
        if writers is None:
            self._page_writers[page] = {txn_id}
        else:
            writers.add(txn_id)

    def remove_txn(self, txn_id: int) -> None:
        """Forget a committed (or permanently gone) transaction."""
        for page in self._txn_reads.pop(txn_id, _EMPTY):
            readers = self._page_readers.get(page)
            if readers is not None:
                readers.discard(txn_id)
                if not readers:
                    del self._page_readers[page]
        for page in self._txn_writes.pop(txn_id, _EMPTY):
            writers = self._page_writers.get(page)
            if writers is not None:
                writers.discard(txn_id)
                if not writers:
                    del self._page_writers[page]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def readers_of(self, page: int) -> set[int]:
        """Return a copy of the uncommitted readers of ``page``."""
        return set(self._page_readers.get(page, _EMPTY))

    def writers_view(self, page: int):
        """Return the internal writer set of ``page`` without copying.

        Returns
        -------
        collection of int
            The live internal set (or a shared empty tuple).  Callers
            MUST NOT mutate it and MUST NOT hold it across index updates.
        """
        return self._page_writers.get(page, _EMPTY)

    def written_by(self, txn_id: int) -> set[int]:
        """Return pages written (so far) by ``txn_id``'s program.

        Returns
        -------
        set of int
            The live internal set when the transaction has writes (do not
            mutate), else a fresh empty set.
        """
        return self._txn_writes.get(txn_id, set())

    def writes_page(self, txn_id: int, page: int) -> bool:
        """Whether ``txn_id``'s program (as observed so far) writes ``page``."""
        writes = self._txn_writes.get(txn_id)
        return writes is not None and page in writes

    def first_read_position(self, txn_id: int, page: int) -> int:
        """Return the reader's first observed position reading ``page``.

        Parameters
        ----------
        txn_id : int
            The reading transaction.
        page : int
            The page whose first read position is requested.

        Returns
        -------
        int
            The earliest recorded program position.

        Raises
        ------
        InvariantViolation
            If the read was never recorded (detection logic out of sync).
        """
        try:
            return self._txn_reads[txn_id][page]
        except KeyError:
            raise InvariantViolation(
                f"no recorded read of page {page} by T{txn_id}"
            ) from None
