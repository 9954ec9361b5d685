"""Protocol framework: executions, the step loop, and the CC interface.

Every protocol in this library drives one or more :class:`Execution` objects
per transaction (OCC/2PL: exactly one at a time; SCC: one optimistic shadow
plus speculative shadows).  An execution replays the transaction's
deterministic step program.  The base class owns the step loop:

    _start -> _advance -> [before_step hook] -> resource service ->
    _complete_step -> record access -> [after_step hook] -> _advance ...

``before_step`` lets a protocol block the execution (2PL lock waits)
*before* the access happens; ``after_step`` lets it react to the access.
When the program is exhausted ``on_finished`` fires (validation/commit).

Stale-callback safety: each execution carries an ``epoch`` bumped on every
abort/block/resume; a service-completion callback captured under an old
epoch is ignored.  This makes aborting an execution mid-service trivially
correct regardless of the resource model.

Hot-path discipline: the step loop runs once per simulated page access —
hundreds of thousands of times per sweep — so it avoids per-step closure
allocation (service completions are dispatched as ``(method, execution,
epoch)``), per-step property lookups (``bind`` caches the system handle,
the step service time, and the subclass hook methods), and per-step
re-derivation of program length (cached on the execution).  The hook
methods are resolved once at ``bind`` time, so protocols must override
them in the class body, not by assigning instance attributes after
binding.  ``unbind`` drops those handles (reference cycles, like the
system back-reference) when the run closes.

SCC protocols run their own step loop (:mod:`repro.core.shadow_pool`):
``SCCProtocolBase`` overrides ``_advance``, so its executions never reach
``before_step``/``after_step``.  That loop applies the same per-access
rules in one frame — the readset transition (:func:`record_access`),
first-write-only writeset entries, program exhaustion and the
stale-completion guard — and requests service through the same
``ResourceManager.request``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.errors import InvariantViolation, ProtocolError
from repro.txn.spec import Step, TransactionSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.model import RTDBSystem


class ExecutionState(enum.Enum):
    """Lifecycle of an execution (a transaction run or an SCC shadow)."""

    READY = "ready"  # created, not yet started
    RUNNING = "running"  # executing steps
    BLOCKED = "blocked"  # waiting (lock wait / SCC blocking rule)
    FINISHED = "finished"  # program exhausted, awaiting commit decision
    COMMITTED = "committed"
    ABORTED = "aborted"


#: States in which an execution can still make progress or commit.  A
#: module-level constant so the hot ``alive`` property tests membership
#: without rebuilding the tuple on every call.
_ALIVE_STATES = frozenset(
    (
        ExecutionState.READY,
        ExecutionState.RUNNING,
        ExecutionState.BLOCKED,
        ExecutionState.FINISHED,
    )
)


class ReadRecord(NamedTuple):
    """One page read performed by an execution.

    Attributes
    ----------
    position : int
        Program position of the (first) read of this page.
    version : int
        Committed page version observed.
    time : float
        Simulated time of the read.
    """

    position: int
    version: int
    time: float


def record_access(
    prior: Optional[ReadRecord], pos: int, version: int, now: float
) -> ReadRecord:
    """The readset transition of one serviced page access.

    A first access records its own position; a re-access of a page
    (possible in hand-built programs) keeps the first position but
    observes the latest committed version and time.

    Parameters
    ----------
    prior : ReadRecord or None
        The existing readset entry for the page, if any.
    pos : int
        Program position of the access being recorded.
    version : int
        Committed page version observed by the access.
    now : float
        Simulated time of the access.

    Returns
    -------
    ReadRecord
        The readset entry to store for the page.
    """
    if prior is None:
        return ReadRecord(pos, version, now)
    return ReadRecord(prior[0], version, now)


class Execution:
    """One replay of a transaction's program.

    Attributes
    ----------
    txn : TransactionSpec
        The transaction specification being replayed.
    pos : int
        Index of the next step to execute.
    num_steps : int
        Cached program length (``len(txn.steps)``); the step loop compares
        against it on every advance.
    state : ExecutionState
        Current lifecycle state.
    readset : dict[int, ReadRecord]
        page -> :class:`ReadRecord` (first read position, latest version
        observed).
    writeset : dict[int, int]
        page -> program position of the write.
    work : float
        Service time consumed by *this* execution (excludes any prefix
        inherited from a fork donor); feeds the wasted-work metric.
    epoch : int
        Bumped on abort/block/resume to invalidate stale callbacks.
    serial : int
        Globally unique creation number; the deterministic tie-break for
        shadow selection (donor choice, promotion) everywhere in the
        library.
    """

    __slots__ = (
        "txn",
        "pos",
        "num_steps",
        "state",
        "readset",
        "writeset",
        "work",
        "epoch",
        "step_started_at",
        "serial",
    )

    _next_serial = 0

    def __init__(self, txn: TransactionSpec, start_pos: int = 0) -> None:
        self.txn = txn
        self.pos = start_pos
        self.num_steps = len(txn.steps)
        self.state = ExecutionState.READY
        self.readset: dict[int, ReadRecord] = {}
        self.writeset: dict[int, int] = {}
        self.work: float = 0.0
        self.epoch = 0
        self.step_started_at: Optional[float] = None
        self.serial = Execution._next_serial
        Execution._next_serial += 1

    @property
    def alive(self) -> bool:
        """Whether the execution can still make progress or commit."""
        return self.state in _ALIVE_STATES

    @property
    def done(self) -> bool:
        """Whether the program is exhausted."""
        return self.pos >= self.num_steps

    def current_step(self) -> Step:
        """Return the step about to be executed.

        Returns
        -------
        Step
            The next page access of the program.

        Raises
        ------
        ProtocolError
            If the program is already exhausted.
        """
        if self.pos >= self.num_steps:
            raise ProtocolError(f"execution of T{self.txn.txn_id} has no current step")
        return self.txn.steps[self.pos]

    def has_read(self, page: int) -> bool:
        """Whether this execution has read ``page``."""
        return page in self.readset

    def has_read_any(self, pages) -> bool:
        """Whether this execution has read any page in ``pages``.

        Parameters
        ----------
        pages : collection of int
            Pages to probe (any container supporting set disjointness,
            e.g. a ``set`` of page ids or a writeset's dict keys).

        Returns
        -------
        bool
            ``True`` if the readset intersects ``pages``.
        """
        return not self.readset.keys().isdisjoint(pages)

    def bump_epoch(self) -> int:
        """Invalidate outstanding service callbacks; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Execution(T{self.txn.txn_id}, pos={self.pos}/{self.num_steps}, "
            f"{self.state.value})"
        )


def execution_mode(execution: Execution) -> Optional[str]:
    """The shadow mode name a trace event records for an execution.

    Parameters
    ----------
    execution : Execution
        Any execution; SCC shadows carry a ``mode`` enum, plain
        executions (OCC/2PL/serial) do not.

    Returns
    -------
    str or None
        The mode's value for a shadow, ``None`` for a plain execution.
        Called only where a tracer is installed, so an untraced run
        never asks.
    """
    mode = getattr(execution, "mode", None)
    return mode.value if mode is not None else None


class CCProtocol(ABC):
    """Base class for all concurrency-control protocols.

    Subclasses implement the transaction lifecycle hooks; the base class
    owns the step loop and the interaction with the resource manager.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.system: Optional["RTDBSystem"] = None
        # Hot-path caches; refreshed (with the resource handles) by bind().
        self._resources = None
        self._step_time = 0.0
        self._tracer = None
        self._cache_hook_handles()

    def _cache_hook_handles(self) -> None:
        """Resolve the subclass hook methods once (per-event lookups are hot)."""
        self._before_step = self.before_step
        self._after_step = self.after_step
        self._on_finished = self.on_finished

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind(self, system: "RTDBSystem") -> None:
        """Attach the protocol to a system model.  Called once by the system.

        Caches the per-event handles the step loop needs (resource manager,
        step service time, subclass hook methods), so hooks overridden
        after binding are not picked up.

        Parameters
        ----------
        system : RTDBSystem
            The fully constructed system model (simulator, database, and
            resource manager already wired).

        Raises
        ------
        ProtocolError
            If the protocol is already bound.
        """
        if self.system is not None:
            raise ProtocolError(f"protocol {self.name} is already bound")
        self.system = system
        self._resources = system.resources
        self._step_time = system.resources.step_service_time
        # The disabled-telemetry contract: tracing costs one attribute
        # load plus an identity test per potential event when no tracer
        # is installed.
        self._tracer = getattr(system, "tracer", None)
        self._cache_hook_handles()

    def unbind(self) -> None:
        """Detach from the system, undoing :meth:`bind` (each handle is a cycle).

        Subclasses that store back-references, their own bound methods
        or closures in ``bind`` drop them here too.
        """
        self.system = None
        self._resources = None
        self._tracer = None
        self._before_step = self._after_step = self._on_finished = None

    def _require_system(self) -> "RTDBSystem":
        if self.system is None:
            raise ProtocolError(f"protocol {self.name} is not bound to a system")
        return self.system

    # ------------------------------------------------------------------
    # lifecycle hooks (subclass API)
    # ------------------------------------------------------------------

    @abstractmethod
    def on_arrival(self, txn: TransactionSpec) -> None:
        """Handle a new transaction entering the system (the Start Rule).

        Parameters
        ----------
        txn : TransactionSpec
            The arriving transaction's program and timing envelope.
        """

    @abstractmethod
    def on_finished(self, execution: Execution) -> None:
        """Handle an execution exhausting its program (validation/commit).

        Parameters
        ----------
        execution : Execution
            The FINISHED execution awaiting a commit decision.
        """

    def before_step(self, execution: Execution, step: Step) -> bool:
        """Decide whether ``execution`` may perform ``step``.

        Parameters
        ----------
        execution : Execution
            The running execution about to access a page.
        step : Step
            The page access about to happen.

        Returns
        -------
        bool
            ``True`` to proceed with the access.  ``False`` if the hook
            blocked (or killed) the execution — in that case the hook is
            responsible for the state transition and later resumption.
        """
        return True

    def after_step(self, execution: Execution, step: Step) -> None:
        """React to a completed, recorded page access.

        Parameters
        ----------
        execution : Execution
            The execution that performed the access (its read/write sets
            already include it).
        step : Step
            The access that completed.
        """

    def on_drain(self) -> None:
        """Flush end-of-run state when arrivals are exhausted."""

    # ------------------------------------------------------------------
    # step loop (shared machinery)
    # ------------------------------------------------------------------

    def _start(self, execution: Execution) -> None:
        """Begin (or restart) driving an execution."""
        if not execution.alive:
            raise ProtocolError(f"cannot start dead execution {execution!r}")
        execution.state = ExecutionState.RUNNING
        execution.epoch += 1
        self._advance(execution)

    def _resume(self, execution: Execution) -> None:
        """Resume a blocked execution from its blocking point."""
        if execution.state is not ExecutionState.BLOCKED:
            raise ProtocolError(f"cannot resume non-blocked execution {execution!r}")
        execution.state = ExecutionState.RUNNING
        execution.epoch += 1
        self._advance(execution)

    def _block(self, execution: Execution) -> None:
        """Transition a running execution to BLOCKED."""
        if execution.state is not ExecutionState.RUNNING:
            raise ProtocolError(f"cannot block non-running execution {execution!r}")
        execution.state = ExecutionState.BLOCKED
        execution.epoch += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "block",
                self.system.sim.now,
                execution.txn.txn_id,
                serial=execution.serial,
                mode=execution_mode(execution),
                pos=execution.pos,
            )

    def _kill(self, execution: Execution) -> None:
        """Abort an execution, releasing any pending service callback."""
        if execution.state in (ExecutionState.COMMITTED, ExecutionState.ABORTED):
            return
        execution.state = ExecutionState.ABORTED
        execution.epoch += 1
        self._require_system().record_execution_abort(execution)

    def _advance(self, execution: Execution) -> None:
        """Drive the next step of a running execution (or finish it)."""
        system = self.system
        if system is None:
            raise ProtocolError(f"protocol {self.name} is not bound to a system")
        if execution.state is not ExecutionState.RUNNING:
            raise ProtocolError(f"cannot advance {execution!r}")
        pos = execution.pos
        if pos >= execution.num_steps:
            execution.state = ExecutionState.FINISHED
            execution.epoch += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "txn_finish",
                    system.sim.now,
                    execution.txn.txn_id,
                    serial=execution.serial,
                    mode=execution_mode(execution),
                    pos=pos,
                )
            self._on_finished(execution)
            return
        step = execution.txn.steps[pos]
        if not self._before_step(execution, step):
            if execution.state is ExecutionState.RUNNING:
                raise InvariantViolation(
                    "before_step returned False but left the execution RUNNING"
                )
            return
        execution.step_started_at = system.sim.now
        self._resources.request(
            execution, self._complete_step, execution, execution.epoch
        )

    def _complete_step(self, execution: Execution, epoch: int) -> None:
        """Record a serviced access and keep the execution going.

        Parameters
        ----------
        execution : Execution
            The execution whose page access finished service.
        epoch : int
            The execution epoch captured when service was requested; a
            mismatch means the execution was aborted/blocked while in
            service and the completion is dropped.
        """
        # A completion is stale when the epoch moved on or the execution
        # is no longer RUNNING (this frame fires once per simulated page
        # access, so the guard stays call-free).
        if execution.epoch != epoch or execution.state is not ExecutionState.RUNNING:
            return  # the execution was aborted/blocked while in service
        system = self.system
        pos = execution.pos
        step = execution.txn.steps[pos]
        page = step.page
        version = system.db.version(page)
        now = system.sim.now
        execution.readset[page] = record_access(
            execution.readset.get(page), pos, version, now
        )
        # Only the first write of a page is recorded.
        if step.is_write and page not in execution.writeset:
            execution.writeset[page] = pos
        execution.pos = pos + 1
        execution.work += self._step_time
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "step_complete",
                now,
                execution.txn.txn_id,
                serial=execution.serial,
                mode=execution_mode(execution),
                pos=pos,
                data={"page": page, "write": step.is_write},
            )
        self._after_step(execution, step)
        if execution.state is ExecutionState.RUNNING:
            self._advance(execution)

    # ------------------------------------------------------------------
    # commit helper
    # ------------------------------------------------------------------

    def _commit(self, execution: Execution) -> None:
        """Commit a FINISHED execution on behalf of its transaction."""
        if execution.state is not ExecutionState.FINISHED:
            raise ProtocolError(f"cannot commit {execution!r}")
        execution.state = ExecutionState.COMMITTED
        self._require_system().commit(execution)
