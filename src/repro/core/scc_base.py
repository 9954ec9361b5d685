"""Shared SCC machinery: the state and cold transitions of SCC-kS (§2.1).

The paper's five rules are applied per access by the SCC step loop,
:class:`~repro.core.shadow_pool.FusedSCCStepDriver`, which
:meth:`SCCProtocolBase.bind` installs under every resource model and to
which ``on_arrival``, ``commit_transaction`` and ``_advance`` forward.
This module holds what the rules act on and what they trigger:

* the per-transaction state (:class:`SCCTxnRuntime`: the optimistic
  shadow, the speculative shadows keyed by writer, the conflict table)
  and the global :class:`~repro.core.conflict_table.AccessIndex`;
* speculation maintenance, centralized in :meth:`_rebuild_speculation`,
  which reconciles the live shadow set against the *desired coverage*
  (which conflicts deserve shadows, per subclass policy and budget).
  The Read and Write Rules, LBFO replacement and post-commit
  re-speculation are all "conflict table changed → rebuild", which keeps
  the invariants checkable in one place;
* the Commit Rule's per-transaction effects
  (:meth:`_process_commit_effects`): kill every shadow that read a
  now-stale page ("exposed" shadows, e.g. T³₁ in the paper's Figure 7)
  and, where the optimistic shadow died, promote the surviving shadow
  with the latest blocking point.  Any shadow past the first conflict
  position with the committer must have read the conflict page and is
  therefore dead, so the latest-blocked survivor *is* the shadow that
  waited on the committer whenever one exists — both cases of the
  paper's Commit Rule (Figures 7 and 8).  With no survivor the
  transaction restarts from scratch (OCC-BC behaviour);
* the runtime checker :meth:`SCCProtocolBase.check_invariants`.

Deciding *when* a finished optimistic shadow commits is delegated to a
:class:`~repro.core.deferral.TerminationPolicy`: immediate for
SCC-kS/2S/CB, deferred for the value-cognizant SCC-DC/SCC-VW (§3's
Termination Rule).  Variants specialise coverage
(:meth:`SCCProtocolBase._desired_coverage`, :meth:`~SCCProtocolBase.budget_for`)
and termination, never the per-access rules.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence

from repro._record import Record
from repro.core.conflict_table import AccessIndex, ConflictTable
from repro.core.deferral import ImmediateCommit, TerminationPolicy
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import CCProtocol, Execution, ExecutionState
from repro.txn.spec import TransactionSpec

#: States a shadow may be in to serve as a fork donor: it must still be
#: executing (or about to) so the copied prefix is a live computation.
_DONOR_STATES = frozenset(
    (ExecutionState.RUNNING, ExecutionState.BLOCKED, ExecutionState.READY)
)


def select_replacement(
    survivors: Sequence[tuple[int, Shadow]], committer_id: int
) -> Optional[tuple[int, Shadow]]:
    """Pick the speculative shadow promoted by the Commit Rule.

    The latest position wins; among equals, the shadow that speculated on
    the committing transaction itself is preferred (Commit Rule case 1),
    then creation order (smallest ``serial``) breaks the remaining tie.

    Parameters
    ----------
    survivors : sequence of (writer, shadow)
        Live speculative shadows keyed by the conflicting writer each one
        hedges against.
    committer_id : int
        The transaction that just committed.

    Returns
    -------
    tuple of (int, Shadow) or None
        The chosen ``(writer, shadow)`` pair, or ``None`` when no
        speculative shadow survived (the transaction must restart from
        scratch).
    """
    if not survivors:
        return None

    def rank(item: tuple[int, Shadow]) -> tuple:
        writer, shadow = item
        return (shadow.pos, writer == committer_id, -shadow.serial)

    return max(survivors, key=rank)


class SCCTxnRuntime(Record):
    """Per-transaction SCC state.

    Attributes
    ----------
    spec : TransactionSpec
        The transaction.
    optimistic : Shadow
        The unique optimistic shadow (always present).
    speculatives : dict[int, Shadow]
        writer txn id -> speculative shadow accounting for the conflict
        with that writer.
    conflicts : ConflictTable
        The transaction's conflict table (it is the *reader*).
    restarts : int
        Times the transaction lost all shadows and started over.
    deferred : bool
        Whether a finished shadow's commitment was ever deferred.
    txn_id : int
        The transaction's id, denormalized from ``spec`` (read on every
        step of every shadow, so a plain attribute, not a property).
    """

    __slots__ = (
        "spec",
        "optimistic",
        "speculatives",
        "conflicts",
        "restarts",
        "deferred",
        "txn_id",
    )

    def __init__(
        self,
        spec: TransactionSpec,
        optimistic: Shadow,
        speculatives: Optional[dict[int, Shadow]] = None,
        conflicts: Optional[ConflictTable] = None,
        restarts: int = 0,
        deferred: bool = False,
    ) -> None:
        self.spec = spec
        self.optimistic = optimistic
        self.speculatives = {} if speculatives is None else speculatives
        self.conflicts = ConflictTable() if conflicts is None else conflicts
        self.restarts = restarts
        self.deferred = deferred
        self.txn_id = spec.txn_id

    def live_shadows(self) -> list[Shadow]:
        """The optimistic shadow plus all live speculative shadows."""
        shadows = [self.optimistic]
        shadows.extend(s for s in self.speculatives.values() if s.alive)
        return shadows

    @property
    def finished_waiting(self) -> bool:
        """Whether the optimistic shadow finished and awaits commitment."""
        return self.optimistic.state is ExecutionState.FINISHED


class SCCProtocolBase(CCProtocol):
    """Common machinery for every SCC variant."""

    name = "SCC-base"

    def __init__(self, termination: Optional[TerminationPolicy] = None) -> None:
        super().__init__()
        self._runtimes: dict[int, SCCTxnRuntime] = {}
        self._index = AccessIndex()
        self._termination = termination or ImmediateCommit()
        self._termination.bind(self)
        #: Whether :meth:`_desired_coverage` is a pure function of the
        #: conflict records (no dependence on the simulated clock).  The
        #: base default coverage (empty) trivially is; subclasses with a
        #: replacement policy must set this from the policy's
        #: ``time_invariant`` flag.  Enables the commit-path rebuild skip.
        self._coverage_time_invariant = True
        #: Optional shadow-lifecycle observer: a callable
        #: ``(kind, txn_id, shadow_or_None)`` invoked on "spawn", "block",
        #: "promote", "restart", "kill", "finish", and "commit" events.
        #: Used by :mod:`repro.analysis.timeline` to draw execution
        #: diagrams; ``None`` (the default) costs nothing.
        self.observer = None
        #: Live shadow count across all runtimes, maintained by _emit for
        #: the ``peak_live_shadows`` telemetry gauge.
        self._live_shadow_count = 0
        #: The step loop of the current binding (``None`` when unbound).
        self._driver = None

    def bind(self, system) -> None:
        """Attach to a system and install the SCC step loop.

        Parameters
        ----------
        system : RTDBSystem
            The fully constructed system model, under any resource
            model.
        """
        super().bind(system)
        # Imported here, not at module load: the step loop imports this
        # module, and it need not load before a cell binds.
        from repro.core.shadow_pool import FusedSCCStepDriver

        self._driver = FusedSCCStepDriver(self, system)

    def unbind(self) -> None:
        """Detach from the system, releasing the step loop."""
        if self._driver is not None:
            self._driver.release()
            self._driver = None
        self._termination.unbind()
        super().unbind()

    # ------------------------------------------------------------------
    # the step loop's entry points
    # ------------------------------------------------------------------

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Apply the Start Rule (the step loop creates the optimistic shadow).

        Parameters
        ----------
        txn : TransactionSpec
            The arriving transaction.
        """
        self._driver.on_arrival(txn)

    def commit_transaction(self, runtime: SCCTxnRuntime) -> None:
        """Apply the Commit Rule for ``runtime``'s finished optimistic shadow.

        Parameters
        ----------
        runtime : SCCTxnRuntime
            The transaction to commit.
        """
        self._driver.commit_transaction(runtime)

    def _advance(self, execution: Execution) -> None:
        self._driver.advance(execution)

    #: Observer kinds that map onto SCC-specific trace events.  The
    #: remaining kinds ("block", "finish", "commit") are already traced
    #: at the base-protocol/system layer and are *not* re-emitted here.
    _TRACE_KINDS = {
        "spawn": "shadow_fork",
        "restart": "shadow_fork",
        "kill": "shadow_prune",
        "promote": "shadow_promote",
    }

    def _emit(self, kind: str, txn_id: int, shadow: Optional[Shadow]) -> None:
        # Shadow-occupancy accounting rides the existing lifecycle
        # notifications: spawn/restart create a live shadow, kill and
        # commit retire one.  These are cold paths (per shadow, not per
        # step), so the counters are effectively free.
        system = self.system
        if system is not None:
            counters = system.counters
            if kind in ("spawn", "restart"):
                counters.incr("shadow_forks")
                self._live_shadow_count += 1
                counters.record_max("peak_live_shadows", self._live_shadow_count)
            elif kind == "kill":
                counters.incr("shadow_prunes")
                self._live_shadow_count -= 1
            elif kind == "commit":
                self._live_shadow_count -= 1
            tracer = self._tracer
            if tracer is not None:
                trace_kind = self._TRACE_KINDS.get(kind)
                if trace_kind is not None:
                    tracer.emit(
                        trace_kind,
                        system.sim.now,
                        txn_id,
                        serial=shadow.serial if shadow is not None else None,
                        mode=shadow.mode.value if shadow is not None else None,
                        pos=shadow.pos if shadow is not None else None,
                        data=(
                            {"origin": kind}
                            if trace_kind == "shadow_fork"
                            else None
                        ),
                    )
        if self.observer is not None:
            self.observer(kind, txn_id, shadow)

    # ------------------------------------------------------------------
    # subclass policy hooks
    # ------------------------------------------------------------------

    def _desired_coverage(self, runtime: SCCTxnRuntime) -> list[int]:
        """Writers whose conflicts deserve speculative shadows, in order.

        Subclasses implement the budget/replacement policy here.  The
        default covers nothing (pure OCC-BC behaviour).
        """
        return []

    def budget_for(self, txn: TransactionSpec) -> Optional[int]:
        """Speculative-shadow budget for one transaction (``None``: no limit).

        The default is 0, matching the empty default coverage.
        """
        return 0

    # ------------------------------------------------------------------
    # shared queries (used by policies and termination rules)
    # ------------------------------------------------------------------

    @property
    def index(self) -> AccessIndex:
        """The global access index."""
        return self._index

    def runtime_of(self, txn_id: int) -> Optional[SCCTxnRuntime]:
        """Runtime state of an active transaction, or ``None``."""
        return self._runtimes.get(txn_id)

    def runtimes(self) -> list[SCCTxnRuntime]:
        """All active transaction runtimes."""
        return list(self._runtimes.values())

    def transaction_has_conflicts(self, runtime: SCCTxnRuntime) -> bool:
        """Whether ``runtime`` conflicts with any uncommitted transaction.

        Checks both directions: incoming (it read pages an uncommitted
        writer wrote — its conflict table) and outgoing (uncommitted
        transactions read pages it wrote).  The paper's Termination Rules
        commit immediately only when *neither* exists.
        """
        if len(runtime.conflicts) > 0:
            return True
        return bool(self.readers_of_writes(runtime))

    def readers_of_writes(self, runtime: SCCTxnRuntime) -> list[SCCTxnRuntime]:
        """Active transactions that read pages ``runtime`` wrote."""
        seen: set[int] = set()
        result = []
        for page in self._index.written_by(runtime.txn_id):
            for reader in self._index.readers_of(page):
                if reader != runtime.txn_id and reader not in seen:
                    other = self._runtimes.get(reader)
                    if other is not None:
                        seen.add(reader)
                        result.append(other)
        return result

    # ------------------------------------------------------------------
    # speculation maintenance
    # ------------------------------------------------------------------

    def _rebuild_speculation(self, runtime: SCCTxnRuntime) -> None:
        """Reconcile live shadows against the desired conflict coverage."""
        desired = self._desired_coverage(runtime)
        speculatives = runtime.speculatives
        if speculatives:
            # List membership below is fine for the typical tiny coverage
            # (k-1 entries); fall back to a set for wide budgets.
            desired_set = desired if len(desired) <= 4 else set(desired)
            for writer, shadow in list(speculatives.items()):
                if (
                    writer not in desired_set
                    or not shadow.alive
                    or self._shadow_invalid_for(shadow, writer)
                ):
                    del speculatives[writer]
                    if shadow.alive:
                        self._emit("kill", runtime.txn_id, shadow)
                    self._kill(shadow)
        for writer in desired:
            if writer not in speculatives:
                speculatives[writer] = self._spawn_speculative(
                    runtime, writer
                )

    def _shadow_invalid_for(self, shadow: Shadow, writer: int) -> bool:
        """A shadow that read the writer's pages can no longer wait on it.

        This is the Figure 5 situation: a new, earlier conflict page means
        the existing shadow already exposed itself to the writer.
        """
        return shadow.has_read_any(self._index.written_by(writer))

    def _spawn_speculative(self, runtime: SCCTxnRuntime, writer: int) -> Shadow:
        """Create the shadow accounting for the conflict with ``writer``.

        Forks from the *latest* valid donor: any live shadow positioned at
        or before the conflict's first position that has not read any of
        the writer's pages.  With no donor it re-executes from scratch.
        """
        first_pos = runtime.conflicts.blocking_point(writer)
        if first_pos is None:
            raise InvariantViolation(
                f"spawning shadow for unrecorded conflict "
                f"T{writer} -> T{runtime.txn_id}"
            )
        written = self._index.written_by(writer)
        # One pass picks the latest donor (largest pos, then smallest
        # serial) among shadows in a donor state: that filter subsumes
        # live_shadows' aliveness check, and the (pos, -serial) maximum
        # is order-independent, so the choice is deterministic.
        donor = None
        for shadow in (
            runtime.optimistic,
            *runtime.speculatives.values(),
        ):
            if (
                shadow.pos <= first_pos
                and shadow.state in _DONOR_STATES
                and not shadow.has_read_any(written)
                and (
                    donor is None
                    or shadow.pos > donor.pos
                    or (shadow.pos == donor.pos and shadow.serial < donor.serial)
                )
            ):
                donor = shadow
        wait_for = frozenset({writer})
        if donor is not None:
            shadow = donor.fork(ShadowMode.SPECULATIVE, wait_for)
        else:
            shadow = Shadow(runtime.spec, ShadowMode.SPECULATIVE, wait_for)
        self._emit("spawn", runtime.txn_id, shadow)
        self._start(shadow)
        return shadow

    # ------------------------------------------------------------------
    # finishing and the Commit Rule
    # ------------------------------------------------------------------

    def on_finished(self, execution: Execution) -> None:
        """Hand a finished optimistic shadow to the Termination Rule.

        Invariant checked: only optimistic shadows can run to completion —
        a speculative shadow must hit its Blocking Rule point first (its
        wait set wrote a page its program reads, by construction).
        """
        shadow = self._as_shadow(execution)
        if shadow.mode is not ShadowMode.OPTIMISTIC:
            raise InvariantViolation(
                f"speculative shadow of T{shadow.txn.txn_id} ran to completion "
                f"without blocking"
            )
        runtime = self._runtimes[shadow.txn.txn_id]
        self._emit("finish", runtime.txn_id, shadow)
        self._termination.on_finished(runtime)

    def _process_commit_effects(
        self,
        runtime: SCCTxnRuntime,
        committer_id: int,
        write_pages: Collection[int],
    ) -> None:
        """Kill exposed shadows of one transaction and promote/restart.

        Parameters
        ----------
        runtime : SCCTxnRuntime
            An active transaction other than the committer.
        committer_id : int
            The transaction that just committed.
        write_pages : collection of int
            The committer's installed write set; any shadow that read one
            of these pages is exposed and must die (Commit Rule).

        Notes
        -----
        The closing speculation rebuild is skipped when provably a no-op:
        nothing about this runtime changed (no conflict removed, no shadow
        killed, no promotion) and the coverage policy is time-invariant.
        New conflicts always trigger an eager rebuild at detection time
        (Read/Write Rules) and shadow exposure to its *own* wait set is
        reaped eagerly when the exposing read completes, so an unchanged
        runtime's desired coverage is exactly its current coverage.
        """
        changed = runtime.conflicts.remove_writer(committer_id)
        for writer, speculative in list(runtime.speculatives.items()):
            if speculative.has_read_any(write_pages):
                del runtime.speculatives[writer]
                if speculative.alive:
                    self._emit("kill", runtime.txn_id, speculative)
                self._kill(speculative)
                changed = True
        optimistic = runtime.optimistic
        if optimistic.has_read_any(write_pages):
            was_finished = optimistic.state is ExecutionState.FINISHED
            self._emit("kill", runtime.txn_id, optimistic)
            self._kill(optimistic)
            if was_finished:
                self._termination.on_unfinished(runtime)
            self._adopt_replacement(runtime, committer_id)
            changed = True
        if changed or not self._coverage_time_invariant:
            self._rebuild_speculation(runtime)

    def _adopt_replacement(self, runtime: SCCTxnRuntime, committer_id: int) -> None:
        """Promote the latest-blocked survivor, or restart from scratch."""
        survivors = [
            (writer, s) for writer, s in runtime.speculatives.items() if s.alive
        ]
        replacement = select_replacement(survivors, committer_id)
        if replacement is not None:
            writer, chosen = replacement
            del runtime.speculatives[writer]
            chosen.promote()
            runtime.optimistic = chosen
            self._emit("promote", runtime.txn_id, chosen)
            if chosen.state is ExecutionState.BLOCKED:
                self._resume(chosen)
            # A RUNNING catch-up shadow simply keeps executing as the new
            # optimistic; a READY one is already scheduled to start.
        else:
            runtime.restarts += 1
            self._require_system().record_restart(runtime.spec)
            fresh = Shadow(runtime.spec, ShadowMode.OPTIMISTIC)
            runtime.optimistic = fresh
            self._emit("restart", runtime.txn_id, fresh)
            self._start(fresh)

    # ------------------------------------------------------------------
    # invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on any broken SCC invariant.

        Checked for every active transaction: it holds at most
        :meth:`budget_for` speculative shadows (Figure 6; no limit for
        SCC-CB); its registered optimistic shadow is live and optimistic;
        each speculative shadow waits only on writers in the conflict
        table and has not read its writer's pages; and no live shadow
        holds a stale read.  The step loop's own copies of state held
        elsewhere are checked too
        (:meth:`~repro.core.shadow_pool.FusedSCCStepDriver.check_mirrors`).
        """
        system = self._require_system()
        if self._driver is not None:
            self._driver.check_mirrors()
        for runtime in self._runtimes.values():
            budget = self.budget_for(runtime.spec)
            if budget is not None and len(runtime.speculatives) > budget:
                raise InvariantViolation(
                    f"T{runtime.txn_id}: {len(runtime.speculatives)} "
                    f"speculative shadows exceed its budget of {budget}"
                )
            optimistic = runtime.optimistic
            if optimistic.mode is not ShadowMode.OPTIMISTIC:
                raise InvariantViolation(
                    f"T{runtime.txn_id}: registered optimistic shadow has "
                    f"mode {optimistic.mode}"
                )
            if not optimistic.alive:
                raise InvariantViolation(
                    f"T{runtime.txn_id}: optimistic shadow is dead"
                )
            for writer, shadow in runtime.speculatives.items():
                if shadow.mode is not ShadowMode.SPECULATIVE:
                    raise InvariantViolation(
                        f"T{runtime.txn_id}: shadow for writer {writer} has "
                        f"mode {shadow.mode}"
                    )
                # Note: a speculative shadow MAY transiently be ahead of the
                # optimistic shadow — after a promotion adopts a blocked
                # shadow, a sibling that was mid-service keeps running to
                # its own (later) blocking point.  That is safe: it only
                # exposes itself to writers outside its wait set, which its
                # speculated serialization order permits, and the exposure
                # machinery reaps it if such a conflict materializes.
                if shadow.alive and self._shadow_invalid_for(shadow, writer):
                    raise InvariantViolation(
                        f"T{runtime.txn_id}: shadow waiting on T{writer} has "
                        f"read the writer's pages"
                    )
                for waited in shadow.wait_for:
                    if waited not in runtime.conflicts:
                        raise InvariantViolation(
                            f"T{runtime.txn_id}: speculative shadow waits on "
                            f"T{waited}, which is not in its conflict table"
                        )
            for shadow in runtime.live_shadows():
                for page, record in shadow.readset.items():
                    if system.db.version(page) != record.version:
                        raise InvariantViolation(
                            f"live shadow of T{runtime.txn_id} holds a stale "
                            f"read of page {page}"
                        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _as_shadow(execution: Execution) -> Shadow:
        if not isinstance(execution, Shadow):
            raise ProtocolError("SCC protocols only drive Shadow executions")
        return execution
