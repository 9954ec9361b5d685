"""A page-level lock table for two-phase locking.

The table is purely mechanical — it tracks holders and waiter queues.  All
*policy* (who aborts whom, when waiters are granted) lives in the protocol
(:mod:`repro.protocols.twopl_pa`), because priority-abort decisions need
transaction priorities and restart machinery the table should not know
about.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro._record import Record
from repro.errors import ProtocolError


class LockMode(enum.IntEnum):
    """Lock modes; ``WRITE`` subsumes ``READ``."""

    READ = 0
    WRITE = 1


def compatible(a: LockMode, b: LockMode) -> bool:
    """Whether two locks by *different* transactions can coexist."""
    return a is LockMode.READ and b is LockMode.READ


class LockRequest(Record):
    """A queued lock request.

    Attributes
    ----------
    txn_id : int
        Requesting transaction.
    mode : LockMode
        Requested mode.
    key : tuple
        Priority key (smaller = more urgent); orders the queue.
    alive : bool
        Cleared when the requester aborts or is granted.
    """

    __slots__ = ("txn_id", "mode", "key", "alive")

    def __init__(
        self, txn_id: int, mode: LockMode, key: tuple, alive: bool = True
    ) -> None:
        self.txn_id = txn_id
        self.mode = mode
        self.key = key
        self.alive = alive


class _LockEntry(Record):
    __slots__ = ("holders", "queue")

    def __init__(
        self,
        holders: Optional[dict[int, LockMode]] = None,
        queue: Optional[list[LockRequest]] = None,
    ) -> None:
        self.holders = {} if holders is None else holders
        self.queue = [] if queue is None else queue


class LockTable:
    """Tracks lock holders and waiter queues per page."""

    def __init__(self) -> None:
        self._entries: dict[int, _LockEntry] = {}
        self._held_by: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def mode_held(self, txn_id: int, page: int) -> Optional[LockMode]:
        """Mode ``txn_id`` holds on ``page``, or ``None``."""
        entry = self._entries.get(page)
        if entry is None:
            return None
        return entry.holders.get(txn_id)

    def holders(self, page: int) -> dict[int, LockMode]:
        """Copy of the holder map for ``page``."""
        entry = self._entries.get(page)
        return dict(entry.holders) if entry else {}

    def conflicting_holders(self, txn_id: int, page: int, mode: LockMode) -> list[int]:
        """Other transactions whose held lock conflicts with a request."""
        entry = self._entries.get(page)
        if entry is None:
            return []
        return [
            holder
            for holder, held in entry.holders.items()
            if holder != txn_id and not compatible(mode, held)
        ]

    def waiters(self, page: int) -> list[LockRequest]:
        """Live queued requests for ``page``, in priority order."""
        entry = self._entries.get(page)
        if entry is None:
            return []
        live = [r for r in entry.queue if r.alive]
        live.sort(key=lambda r: r.key)
        return live

    def pages_held(self, txn_id: int) -> set[int]:
        """Pages on which ``txn_id`` holds any lock."""
        return set(self._held_by.get(txn_id, ()))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def grant(self, txn_id: int, page: int, mode: LockMode) -> None:
        """Record a granted (or upgraded) lock."""
        entry = self._entries.get(page)
        if entry is None:
            entry = self._entries[page] = _LockEntry()
        holders = entry.holders
        current = holders.get(txn_id)
        if current is None or mode > current:
            holders[txn_id] = mode
        held = self._held_by.get(txn_id)
        if held is None:
            self._held_by[txn_id] = {page}
        else:
            held.add(page)

    def enqueue(self, page: int, request: LockRequest) -> None:
        """Queue a request that could not be granted."""
        entry = self._entries.get(page)
        if entry is None:
            entry = self._entries[page] = _LockEntry()
        entry.queue.append(request)

    def cancel_requests(self, txn_id: int) -> None:
        """Mark every queued request by ``txn_id`` dead."""
        for entry in self._entries.values():
            for request in entry.queue:
                if request.txn_id == txn_id:
                    request.alive = False

    def release_all(self, txn_id: int) -> list[int]:
        """Release every lock held by ``txn_id``; returns the pages freed."""
        pages = self._held_by.pop(txn_id, set())
        for page in pages:
            entry = self._entries.get(page)
            if entry is None or txn_id not in entry.holders:
                raise ProtocolError(
                    f"lock bookkeeping out of sync for T{txn_id} on page {page}"
                )
            entry.holders.pop(txn_id)
            if not entry.holders and not any(r.alive for r in entry.queue):
                self._entries.pop(page, None)
        return sorted(pages)

    def compact(self, page: int) -> None:
        """Drop dead queue entries for ``page`` (called opportunistically)."""
        entry = self._entries.get(page)
        if entry is None:
            return
        entry.queue = [r for r in entry.queue if r.alive]
        if not entry.holders and not entry.queue:
            self._entries.pop(page, None)
