"""The generic SCC step loop, kept as a test oracle.

The SCC rules in ``src/`` run only in the step loop of
:mod:`repro.core.shadow_pool`.  This module keeps the hook bodies that
loop replaced — the Start, Read, Blocking, Write and Commit Rules as
``on_arrival``/``before_step``/``after_step``/``commit_transaction``
over the generic :class:`~repro.protocols.base.CCProtocol` step loop,
driven through the public :class:`~repro.core.conflict_table.AccessIndex`
methods — so parity tests can hold the loop to an independent
implementation of the same rules.

:func:`generic_oracle` switches an unbound SCC protocol instance (any
registered family and parameterization) to this loop; the shared cold
code (rebuilds, forks, promotions, termination) is unchanged.
"""

from __future__ import annotations

import functools

from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import ProtocolError
from repro.protocols.base import CCProtocol, Execution, ExecutionState
from repro.txn.spec import Step, TransactionSpec


class GenericSCCLoop(CCProtocol):
    """Mixin: run an SCC protocol on the generic step loop and hooks.

    Placed ahead of an :class:`SCCProtocolBase` subclass in the MRO.
    ``bind`` skips the step-loop install, and the per-access entry
    points resolve to :class:`CCProtocol`'s loop and the hooks below.
    Deriving from :class:`CCProtocol` keeps the instance layout of every
    SCC class, so :func:`generic_oracle` can switch an instance's class.
    """

    _advance = CCProtocol._advance

    def bind(self, system) -> None:
        """Attach to a system without installing the SCC step loop."""
        CCProtocol.bind(self, system)

    # ------------------------------------------------------------------
    # Start Rule
    # ------------------------------------------------------------------

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Apply the Start Rule: create and start the optimistic shadow.

        Invariant established: every active transaction has exactly one
        live optimistic shadow at all times (replacements promote or
        restart before the old one's death is visible).
        """
        optimistic = Shadow(txn, ShadowMode.OPTIMISTIC)
        runtime = SCCTxnRuntime(spec=txn, optimistic=optimistic)
        self._runtimes[txn.txn_id] = runtime
        self._emit("spawn", txn.txn_id, optimistic)
        self._start(optimistic)

    # ------------------------------------------------------------------
    # Read + Blocking Rules (before the access)
    # ------------------------------------------------------------------

    def before_step(self, execution: Execution, step: Step) -> bool:
        """Apply the Read Rule (optimistic) or Blocking Rule (speculative).

        Parameters
        ----------
        execution : Execution
            The shadow about to perform ``step`` (must be a
            :class:`~repro.core.shadow.Shadow`).
        step : Step
            The page access about to happen.

        Returns
        -------
        bool
            ``False`` when the Blocking Rule stopped a speculative shadow
            just before it would read a waited-on writer's page; ``True``
            to let the access proceed.

        Notes
        -----
        Invariant preserved: conflict detection runs *before* the exposing
        read, so a shadow forked here can still block ahead of it — the
        paper's "forked off T_o_r" construction.
        """
        shadow = self._as_shadow(execution)
        runtime = self._runtimes[shadow.txn.txn_id]
        page = step.page
        if shadow.mode is ShadowMode.SPECULATIVE:
            # Blocking Rule: stop before reading anything a waited-on
            # transaction writes.
            for writer in shadow.wait_for:
                if self._index.writes_page(writer, page):
                    self._block(shadow)
                    self._emit("block", shadow.txn.txn_id, shadow)
                    return False
            return True
        # Optimistic shadow: Read Rule conflict detection, *before* the
        # exposing read, so a forked shadow can still block ahead of it.
        # The writer view is the precomputed page index — no copy, no scan;
        # conflicts.record never mutates the index, so iterating the live
        # set is safe.
        changed = False
        txn_id = runtime.txn_id
        conflicts = runtime.conflicts
        for writer in self._index.writers_view(page):
            if writer == txn_id:
                continue
            if conflicts.record(writer, page, shadow.pos):
                changed = True
        if changed:
            self._rebuild_speculation(runtime)
        return True

    # ------------------------------------------------------------------
    # Write Rule (after the access)
    # ------------------------------------------------------------------

    def after_step(self, execution: Execution, step: Step) -> None:
        """Apply the Write Rule and the completion-time Read Rule re-check.

        Parameters
        ----------
        execution : Execution
            The shadow whose access just completed (already recorded in
            its read/write sets).
        step : Step
            The completed access.

        Notes
        -----
        Invariants preserved: the global :class:`AccessIndex` learns of
        the read *here* (completion time), so detection windows opened
        while the read was in flight are re-checked; a write is broadcast
        to every prior reader's conflict table exactly once (first write
        of the page by this transaction).
        """
        shadow = self._as_shadow(execution)
        runtime = self._runtimes[shadow.txn.txn_id]
        txn_id = runtime.txn_id
        index = self._index
        page = step.page
        record = shadow.readset[page]
        position = record.position
        index.add_read(txn_id, page, position)
        # Read Rule, completion-time half: a write recorded while this read
        # was in flight (after our before_step check, before completion)
        # would be missed by both the before_step RAW check and the
        # writer's WAR check (our read was not yet recorded).  Re-checking
        # here closes that window; the conflict table is idempotent.
        changed = False
        conflicts = runtime.conflicts
        for writer in index.writers_view(page):
            if writer != txn_id and conflicts.record(writer, page, position):
                changed = True
        # A speculative shadow may have completed a read of a page its
        # *waited* writer wrote while the read was in flight: the writer's
        # WAR pass ran before this read was recorded (the shadow looked
        # valid then), and the conflict table may already hold the writer
        # at this position or an earlier one (no "change").  The shadow is
        # now exposed to its own wait set — force a rebuild so it is
        # replaced (paper Figure 5 semantics).
        if (
            not changed
            and shadow.mode is ShadowMode.SPECULATIVE
            and shadow.alive
            and any(
                index.writes_page(writer, page) for writer in shadow.wait_for
            )
        ):
            changed = True
        if changed:
            self._rebuild_speculation(runtime)
        if not step.is_write:
            return
        newly_written = not index.writes_page(txn_id, page)
        index.add_write(txn_id, page)
        if not newly_written:
            return
        # Write Rule: this transaction's write conflicts with everyone who
        # already read the page.  This loop iterates the copying accessor
        # deliberately: rebuild side effects below schedule events, so the
        # iteration order is part of the deterministic result and must
        # match the set-copy order the golden reference was recorded under.
        for reader in index.readers_of(page):
            if reader == txn_id:
                continue
            other = self._runtimes.get(reader)
            if other is None:
                continue
            position = index.first_read_position(reader, page)
            if other.conflicts.record(txn_id, page, position):
                self._rebuild_speculation(other)

    # ------------------------------------------------------------------
    # Commit Rule
    # ------------------------------------------------------------------

    def commit_transaction(self, runtime: SCCTxnRuntime) -> None:
        """Apply the Commit Rule for ``runtime``'s finished optimistic shadow."""
        shadow = runtime.optimistic
        if shadow.state is not ExecutionState.FINISHED:
            raise ProtocolError(
                f"T{runtime.txn_id} has no finished shadow to commit"
            )
        committer_id = runtime.txn_id
        write_pages = set(shadow.writeset)
        self._commit(shadow)
        self._emit("commit", committer_id, shadow)
        for speculative in runtime.speculatives.values():
            if speculative.alive:
                self._emit("kill", committer_id, speculative)
            self._kill(speculative)
        runtime.speculatives.clear()
        del self._runtimes[committer_id]
        self._index.remove_txn(committer_id)
        self._termination.on_departure(runtime)
        for other in list(self._runtimes.values()):
            self._process_commit_effects(other, committer_id, write_pages)
        self._termination.on_system_change()


@functools.cache
def _oracle_class(cls: type) -> type:
    return type(f"Generic{cls.__name__}", (GenericSCCLoop, cls), {})


def generic_oracle(protocol: SCCProtocolBase) -> SCCProtocolBase:
    """Switch an unbound SCC protocol to the generic loop, in place.

    Parameters
    ----------
    protocol : SCCProtocolBase
        A freshly built protocol (e.g. ``protocol_spec("scc-vw")()``),
        not yet bound to a system.

    Returns
    -------
    SCCProtocolBase
        The same instance, now of a cached ``GenericSCCLoop`` subclass
        of its class.
    """
    protocol.__class__ = _oracle_class(type(protocol))
    return protocol
