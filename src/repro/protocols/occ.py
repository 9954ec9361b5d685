"""Basic optimistic concurrency control (Kung & Robinson style).

Transactions run without any blocking, reading committed page versions into
a private workspace.  Conflicts are detected only at the validation phase:
a finishing transaction validates *backward* — if any page it read has been
re-installed since (its recorded version is stale), it aborts and restarts
from scratch.  This is the paper's Figure 1(a) behaviour: the restart can
come far too late for the transaction's deadline, which is exactly the
weakness OCC-BC and SCC address.
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


class BasicOCC(CCProtocol):
    """Classic OCC with backward validation at commit time."""

    name = "OCC"

    def __init__(self) -> None:
        super().__init__()
        self._runtime: dict[int, _TxnRuntime] = {}

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Start the transaction's (only) execution immediately — OCC never blocks."""
        runtime = _TxnRuntime(spec=txn, execution=Execution(txn))
        self._runtime[txn.txn_id] = runtime
        self._start(runtime.execution)

    def on_finished(self, execution: Execution) -> None:
        """Validate backward: commit if no read is stale, else restart from scratch."""
        system = self._require_system()
        stale = any(
            system.db.version(page) != record.version
            for page, record in execution.readset.items()
        )
        if not stale:
            self._commit(execution)
            del self._runtime[execution.txn.txn_id]
            return
        runtime = self._runtime[execution.txn.txn_id]
        self._kill(runtime.execution)
        runtime.restarts += 1
        system.record_restart(runtime.spec)
        runtime.execution = Execution(runtime.spec)
        self._start(runtime.execution)
