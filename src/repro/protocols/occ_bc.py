"""OCC with Broadcast Commit (OCC-BC), the paper's OCC representative.

Forward validation: a finishing transaction always commits, and its commit
"notifies" every concurrently running transaction that has read any page it
wrote — those are aborted and restarted *immediately* (Figure 1(b)), rather
than discovering the conflict at their own validation.

The invariant this maintains (and the test suite checks) is that no live
execution ever holds a stale read: stale readers are killed at the very
commit instant that staled them.  Consequently the committer itself never
needs validation.
"""

from __future__ import annotations

from repro._record import Record
from repro.protocols.base import CCProtocol, Execution
from repro.txn.spec import TransactionSpec


class _TxnRuntime(Record):
    __slots__ = ("spec", "execution", "restarts")

    def __init__(
        self, spec: TransactionSpec, execution: Execution, restarts: int = 0
    ) -> None:
        self.spec = spec
        self.execution = execution
        self.restarts = restarts


class OCCBroadcastCommit(CCProtocol):
    """Forward-validating OCC: commit broadcasts aborts to stale readers."""

    name = "OCC-BC"

    def __init__(self) -> None:
        super().__init__()
        self._runtime: dict[int, _TxnRuntime] = {}

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Start the transaction's single execution immediately (no blocking)."""
        runtime = _TxnRuntime(spec=txn, execution=Execution(txn))
        self._runtime[txn.txn_id] = runtime
        self._start(runtime.execution)

    def on_finished(self, execution: Execution) -> None:
        """Commit unconditionally and broadcast aborts to every stale reader.

        Forward validation's invariant: stale readers are killed at the
        very commit instant that staled them, so no live execution ever
        holds a stale read and the committer itself needs no validation.
        """
        committer_id = execution.txn.txn_id
        write_pages = set(execution.writeset)
        self._commit(execution)
        del self._runtime[committer_id]
        if write_pages:
            self._broadcast(write_pages)

    def _broadcast(self, write_pages: set[int]) -> None:
        """Restart every active transaction that read a just-staled page."""
        system = self._require_system()
        for runtime in list(self._runtime.values()):
            if runtime.execution.has_read_any(write_pages):
                self._kill(runtime.execution)
                runtime.restarts += 1
                system.record_restart(runtime.spec)
                runtime.execution = Execution(runtime.spec)
                self._start(runtime.execution)
