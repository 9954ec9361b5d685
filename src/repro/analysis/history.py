"""Committed-history recording.

The system model records, for every committed transaction, the page
versions its committing execution read and the versions its writes
installed.  That is exactly the information needed to reconstruct all three
kinds of conflict edges (write-read, write-write, read-write) for the
serializability oracle, without retaining the full operation trace.

Recording also keeps a *commit-order witness*: whether every commit so far
read the last installed version of each page it read and installed the
next version of each page it wrote.  While it holds, every precedence edge
points forward in commit order, so commit order itself serializes the
history and the oracle need not build the graph.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from repro._record import FrozenRecord


class CommittedTransaction(FrozenRecord):
    """Read/write version footprint of one committed transaction.

    Attributes:
        txn_id: The transaction's id.
        commit_time: Simulated commit instant.
        reads: page -> committed version the transaction read.
        writes: page -> version its commit installed (always ``read + 1``
            for pages it both read and wrote, by construction).
    """

    __slots__ = ("txn_id", "commit_time", "reads", "writes")

    def __init__(
        self,
        txn_id: int,
        commit_time: float,
        reads: Mapping[int, int],
        writes: Mapping[int, int],
    ) -> None:
        object.__setattr__(self, "txn_id", txn_id)
        object.__setattr__(self, "commit_time", commit_time)
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "writes", writes)


class History:
    """Accumulates committed transactions in commit order."""

    def __init__(self) -> None:
        self._committed: list[CommittedTransaction] = []
        # (page, installed_version) -> writer txn id; version 0 is the
        # initial database load (writer None).
        self._installer: dict[tuple[int, int], int] = {}
        self._duplicate: Optional[tuple[int, int]] = None
        # The commit-order witness: each page's last installed version,
        # and the ids committed so far (a repeated id is one graph node
        # at two commit positions, which the witness cannot vouch for).
        self._last_version: dict[int, int] = {}
        self._ids: set[int] = set()
        self._in_commit_order = True

    def __len__(self) -> int:
        return len(self._committed)

    def __iter__(self) -> Iterator[CommittedTransaction]:
        return iter(self._committed)

    @property
    def transactions(self) -> list[CommittedTransaction]:
        """Committed transactions in commit order."""
        return list(self._committed)

    @property
    def in_commit_order(self) -> bool:
        """Whether the commit-order witness holds for every commit so far.

        True when no transaction id committed twice, and every commit read
        the last installed version of each page it read and installed the
        next version of each page it wrote.  Every precedence edge then
        points forward in commit order, so the history is serializable.
        """
        return self._in_commit_order

    @property
    def duplicate_install(self) -> Optional[tuple[int, int]]:
        """The first ``(page, version)`` two commits installed, if any."""
        return self._duplicate

    def record(
        self,
        txn_id: int,
        commit_time: float,
        reads: Mapping[int, int],
        writes: Mapping[int, int],
    ) -> None:
        """Record one commit.  ``writes`` maps pages to installed versions."""
        record = CommittedTransaction(
            txn_id=txn_id,
            commit_time=commit_time,
            reads=dict(reads),
            writes=dict(writes),
        )
        self._committed.append(record)
        last = self._last_version
        in_order = (
            self._in_commit_order
            and txn_id not in self._ids
            and all(last.get(page, 0) == v for page, v in record.reads.items())
        )
        self._ids.add(txn_id)
        for page, version in record.writes.items():
            key = (page, version)
            if key not in self._installer:
                self._installer[key] = txn_id
            elif self._duplicate is None:
                self._duplicate = key
            if version != last.get(page, 0) + 1:
                in_order = False
            last[page] = version
        self._in_commit_order = in_order

    def installer_of(self, page: int, version: int) -> int | None:
        """Transaction that first installed ``(page, version)``; ``None`` for v0."""
        return self._installer.get((page, version))
