"""WAIT-50 (Haritsa, Carey & Livny's dynamic optimistic wait control).

OCC-BC plus a *wait control* at validation: a finished transaction ``T``
computes its conflict set ``CS(T)`` — the running transactions that have
read pages ``T`` wrote (i.e. the ones its commit would restart) — and the
subset ``HP(T)`` with higher priority than ``T``.  While

.. math:: |HP(T)| \\ge 0.5\\,|CS(T)| \\quad (CS \\ne \\emptyset)

``T`` defers its commit, giving the urgent conflicting transactions a
chance to finish first.  Priorities are static EDF keys, matching the
paper's setup.  The wait condition is re-evaluated whenever system state
changes (a commit, an abort, a newly finished transaction, or new conflict
membership); when it clears, ``T`` commits with the usual broadcast.

A waiting transaction can itself be restarted by someone else's commit
(it reads stale data like anyone else), in which case it loses its
finished status and re-executes.

The paper's Figure 13 behaviour to reproduce: WAIT-50 beats OCC-BC at low
and medium load but collapses past ~125 tps, where waiting piles up tardy
transactions faster than it saves urgent ones.
"""

from __future__ import annotations

from repro._record import Record
from repro.protocols.base import CCProtocol, Execution
from repro.txn.spec import TransactionSpec

# Evaluation order of waiting transactions is by priority so that the most
# urgent eligible committer goes first (deterministic fixpoint).
_MAX_FIXPOINT_ROUNDS = 1_000_000


class _TxnRuntime(Record):
    __slots__ = ("spec", "execution", "restarts", "deferred_once")

    def __init__(
        self,
        spec: TransactionSpec,
        execution: Execution,
        restarts: int = 0,
        deferred_once: bool = False,
    ) -> None:
        self.spec = spec
        self.execution = execution
        self.restarts = restarts
        self.deferred_once = deferred_once


class Wait50(CCProtocol):
    """OCC broadcast commit with Haritsa's 50% wait control."""

    name = "WAIT-50"

    def __init__(self, wait_threshold: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < wait_threshold <= 1.0:
            raise ValueError(f"wait_threshold must be in (0, 1], got {wait_threshold}")
        self._threshold = wait_threshold
        self._runtime: dict[int, _TxnRuntime] = {}
        self._waiting: dict[int, Execution] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Start the transaction's single execution immediately (OCC core)."""
        runtime = _TxnRuntime(spec=txn, execution=Execution(txn))
        self._runtime[txn.txn_id] = runtime
        self._start(runtime.execution)

    def on_finished(self, execution: Execution) -> None:
        """Enter the wait pool and evaluate the 50% wait condition."""
        self._waiting[execution.txn.txn_id] = execution
        self._reevaluate()

    def after_step(self, execution: Execution, step) -> None:
        """No-op: a completed read never clears anyone's wait condition."""
        # A read may have enlarged some waiter's conflict set; a growing CS
        # can only tip the balance towards more waiting, never towards
        # commit, so no re-evaluation is needed here.  (Re-evaluation on
        # conflict-set *shrink* happens via commits/aborts.)
        return

    # ------------------------------------------------------------------
    # wait control
    # ------------------------------------------------------------------

    def _priority_key(self, spec: TransactionSpec) -> tuple:
        return (spec.deadline, spec.txn_id)

    def _conflict_set(self, execution: Execution) -> list[TransactionSpec]:
        """Running transactions that read pages the finished one wrote."""
        write_pages = set(execution.writeset)
        if not write_pages:
            return []
        members = []
        for runtime in self._runtime.values():
            other = runtime.execution
            if other is execution:
                continue
            if other.txn.txn_id in self._waiting:
                continue  # finished waiters are not "running" per WAIT-50
            if other.has_read_any(write_pages):
                members.append(runtime.spec)
        return members

    def _should_wait(self, execution: Execution) -> bool:
        conflict_set = self._conflict_set(execution)
        if not conflict_set:
            return False
        my_key = self._priority_key(execution.txn)
        higher = sum(
            1 for spec in conflict_set if self._priority_key(spec) < my_key
        )
        return higher >= self._threshold * len(conflict_set)

    def _reevaluate(self) -> None:
        """Commit every eligible waiter, to a fixpoint.

        Each commit broadcasts restarts and may change other waiters'
        conflict sets (either way), so the scan repeats until no waiter
        commits in a full pass.
        """
        rounds = 0
        progress = True
        while progress:
            rounds += 1
            if rounds > _MAX_FIXPOINT_ROUNDS:  # pragma: no cover - safety valve
                raise RuntimeError("WAIT-50 wait-control did not converge")
            progress = False
            for txn_id in sorted(
                self._waiting,
                key=lambda tid: self._priority_key(self._runtime[tid].spec),
            ):
                execution = self._waiting[txn_id]
                if self._should_wait(execution):
                    if not self._runtime[txn_id].deferred_once:
                        self._runtime[txn_id].deferred_once = True
                        self._require_system().metrics.record_deferred_commit()
                    continue
                self._commit_waiter(txn_id, execution)
                progress = True
                break  # membership changed; restart the scan

    def _commit_waiter(self, txn_id: int, execution: Execution) -> None:
        del self._waiting[txn_id]
        write_pages = set(execution.writeset)
        self._commit(execution)
        del self._runtime[txn_id]
        if write_pages:
            self._broadcast(write_pages)

    def _broadcast(self, write_pages: set[int]) -> None:
        """Restart every transaction (running *or waiting*) now stale."""
        system = self._require_system()
        for runtime in list(self._runtime.values()):
            if runtime.execution.has_read_any(write_pages):
                txn_id = runtime.spec.txn_id
                self._waiting.pop(txn_id, None)  # a stale waiter re-executes
                self._kill(runtime.execution)
                runtime.restarts += 1
                system.record_restart(runtime.spec)
                runtime.execution = Execution(runtime.spec)
                self._start(runtime.execution)
