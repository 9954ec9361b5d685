"""2PL with Priority Abort (2PL-PA), the paper's PCC representative.

This is the Abbott & Garcia-Molina *High Priority* scheme over strict
two-phase locking: when a lock request conflicts,

* if the requester's priority exceeds that of **every** conflicting holder,
  the holders are aborted (restarted) and the lock is granted;
* otherwise the requester waits.

Priorities are static Earliest-Deadline-First keys ``(deadline, txn_id)``
(the paper's EDF assignment).  Static priorities make the scheme
deadlock-free in the limit: the highest-priority blocked transaction always
waits on a *running* transaction (any blocked blocker would itself be a
higher-priority blocked transaction), so progress is guaranteed; transient
wait cycles dissolve when the running holder releases.

Writes are deferred to commit and installed while exclusive locks are held
(equivalent to in-place update under the page model).  Locks are released
only at commit/abort (strict 2PL), so the committed history is rigorously
serializable — the test suite checks this with the precedence-graph oracle.
"""

from __future__ import annotations

from repro._record import Record
from repro.errors import ProtocolError
from repro.protocols.base import CCProtocol, Execution, ExecutionState
from repro.protocols.locks import LockMode, LockRequest, LockTable
from repro.txn.spec import Step, TransactionSpec


class _TxnRuntime(Record):
    """Per-transaction state: the current execution attempt."""

    __slots__ = ("spec", "execution", "restarts", "generation")

    def __init__(
        self,
        spec: TransactionSpec,
        execution: Execution,
        restarts: int = 0,
        generation: int = 0,
    ) -> None:
        self.spec = spec
        self.execution = execution
        self.restarts = restarts
        self.generation = generation


class TwoPhaseLockingPA(CCProtocol):
    """Strict 2PL with the High-Priority (priority abort) conflict policy."""

    name = "2PL-PA"

    def __init__(self) -> None:
        super().__init__()
        self._locks = LockTable()
        self._runtime: dict[int, _TxnRuntime] = {}

    # ------------------------------------------------------------------
    # priorities
    # ------------------------------------------------------------------

    def _priority_key(self, txn_id: int) -> tuple:
        """Static EDF key: smaller sorts first = higher priority."""
        spec = self._runtime[txn_id].spec
        return (spec.deadline, spec.txn_id)

    def _higher_priority(self, a: int, b: int) -> bool:
        return self._priority_key(a) < self._priority_key(b)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Start the transaction's first execution attempt."""
        runtime = _TxnRuntime(spec=txn, execution=Execution(txn))
        self._runtime[txn.txn_id] = runtime
        self._start(runtime.execution)

    def before_step(self, execution: Execution, step: Step) -> bool:
        """Acquire the step's lock first — block or abort holders per High Priority."""
        mode = LockMode.WRITE if step.is_write else LockMode.READ
        return self._acquire(execution, step.page, mode)

    def on_finished(self, execution: Execution) -> None:
        """Commit (strict 2PL holds all locks here), then release and re-drive waiters."""
        txn_id = execution.txn.txn_id
        self._commit(execution)
        del self._runtime[txn_id]
        freed = self._locks.release_all(txn_id)
        self._process_queues(freed)

    # ------------------------------------------------------------------
    # locking policy
    # ------------------------------------------------------------------

    def _acquire(self, execution: Execution, page: int, mode: LockMode) -> bool:
        """Try to lock ``page``; blocks or aborts holders per High Priority."""
        txn_id = execution.txn.txn_id
        held = self._locks.mode_held(txn_id, page)
        if held is not None and held >= mode:
            return True
        conflicting = self._locks.conflicting_holders(txn_id, page, mode)
        if not conflicting:
            self._locks.grant(txn_id, page, mode)
            return True
        if all(self._higher_priority(txn_id, holder) for holder in conflicting):
            for holder in list(conflicting):
                self._restart(holder)
            remaining = self._locks.conflicting_holders(txn_id, page, mode)
            if remaining:
                raise ProtocolError(
                    f"holders {remaining} survived priority abort on page {page}"
                )
            self._locks.grant(txn_id, page, mode)
            return True
        request = LockRequest(txn_id=txn_id, mode=mode, key=self._priority_key(txn_id))
        self._locks.enqueue(page, request)
        self._block(execution)
        return False

    def _process_queues(self, pages: list[int]) -> None:
        """Re-evaluate waiters on freed pages (High Priority re-applied).

        Aborting a holder frees more pages; those are folded into the
        worklist until a fixpoint.
        """
        worklist = list(pages)
        seen_rounds = 0
        while worklist:
            seen_rounds += 1
            if seen_rounds > 1_000_000:  # pragma: no cover - safety valve
                raise ProtocolError("lock queue processing did not converge")
            page = worklist.pop()
            for request in self._locks.waiters(page):
                if not request.alive:
                    continue
                runtime = self._runtime.get(request.txn_id)
                if runtime is None or runtime.execution.state is not ExecutionState.BLOCKED:
                    request.alive = False
                    continue
                conflicting = self._locks.conflicting_holders(
                    request.txn_id, page, request.mode
                )
                if conflicting and not all(
                    self._higher_priority(request.txn_id, holder)
                    for holder in conflicting
                ):
                    # Highest-priority waiter cannot be served; do not let
                    # lower-priority waiters overtake it (starvation guard).
                    break
                for holder in list(conflicting):
                    worklist.extend(self._restart(holder))
                self._locks.grant(request.txn_id, page, request.mode)
                request.alive = False
                self._locks.compact(page)
                self._resume(runtime.execution)
        # final tidy of processed pages happens lazily via compact()

    def _restart(self, txn_id: int) -> list[int]:
        """Abort a transaction and schedule a fresh attempt.

        Lock release is synchronous (the aborter needs the pages now), but
        the victim's new attempt starts via a zero-delay event so it cannot
        re-acquire a freed lock before the higher-priority aborter grabs it.

        Returns the pages its locks freed so the caller can re-drive waiter
        queues.
        """
        runtime = self._runtime.get(txn_id)
        if runtime is None:
            raise ProtocolError(f"restarting unknown transaction T{txn_id}")
        self._kill(runtime.execution)
        self._locks.cancel_requests(txn_id)
        freed = self._locks.release_all(txn_id)
        runtime.restarts += 1
        runtime.generation += 1
        self._require_system().record_restart(runtime.spec)
        runtime.execution = Execution(runtime.spec)
        generation = runtime.generation
        self._require_system().sim.schedule(
            0.0, self._begin_attempt, txn_id, generation, priority=5
        )
        return freed

    def _begin_attempt(self, txn_id: int, generation: int) -> None:
        runtime = self._runtime.get(txn_id)
        if runtime is None or runtime.generation != generation:
            return  # committed or restarted again in the meantime
        if runtime.execution.state is ExecutionState.READY:
            self._start(runtime.execution)
