"""The SCC step loop: the paper's five rules (§2.1), one frame per access.

:class:`FusedSCCStepDriver` is the one place that applies the Start,
Read, Blocking, Write and Commit Rules.
:class:`~repro.core.scc_base.SCCProtocolBase` builds one driver per
binding, under every resource model, and forwards ``on_arrival``,
``commit_transaction`` and ``_advance`` to it.  The cold transitions
the rules trigger — speculation rebuilds with their forks and kills,
Commit Rule promotions, restarts, the Termination Rule — stay in
:mod:`repro.core.scc_base`.

* **Start Rule** — :meth:`FusedSCCStepDriver.on_arrival` creates the
  optimistic shadow, the transaction's pool slot and its dispatch
  cohort.
* **Read Rule** — before an optimistic shadow's access, every
  uncommitted writer of the page enters its conflict table, so a shadow
  forked there can still block ahead of the exposing read.  The
  completion re-checks writes recorded while the read was in flight.
* **Blocking Rule** — a speculative shadow blocks before reading a page
  that a writer in its ``wait_for`` set wrote.
* **Write Rule** — a transaction's first write of a page enters the
  conflict table of every transaction that already read the page.
* **Commit Rule** — :meth:`FusedSCCStepDriver.commit_transaction`
  installs the finished shadow and kills every exposed shadow.

The loop costs one Python frame per access.  The service-completion
callback is a closure: it records the access and applies the
completion-time rules, then applies the next access's Read or Blocking
Rule and requests its service through ``system.resources.request``.
``_advance`` enters the same closure with nothing to record.  The
closure reads its hot handles from cells, and a per-transaction
*dispatch cohort* rides in every completion payload.

:class:`ShadowPool` gives each active transaction a slot whose packed
page bitsets (arbitrary-precision ints, CPython's fastest bit array)
mirror its read and write pages in the
:class:`~repro.core.conflict_table.AccessIndex`, so the Blocking Rule
probe is one AND.  :meth:`FusedSCCStepDriver.check_mirrors` checks every
copy the loop keeps of state held elsewhere.

The loop draws no randomness and allocates shadow serials only through
the shared cold code, so the golden gate and the frozen engine
reference pin its results.  ``tests/engine`` keeps the generic hooks
this loop replaced as an oracle and requires equal summaries on
adversarial schedules and under finite resources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.scc_base import SCCTxnRuntime
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import ConfigurationError, InvariantViolation, ProtocolError
from repro.protocols.base import ExecutionState, ReadRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scc_base import SCCProtocolBase
    from repro.system.model import RTDBSystem
    from repro.txn.spec import TransactionSpec

__all__ = ["DEFAULT_POOL_CAPACITY", "FusedSCCStepDriver", "ShadowPool"]

#: Initial slot capacity of a driver's :class:`ShadowPool`; doubled on
#: exhaustion.  Read each time a driver is built, so tests can shrink it.
DEFAULT_POOL_CAPACITY = 64

# Hot-loop constants (module-level loads are cheaper than attribute
# chains through the enum class on every access).
_RUNNING = ExecutionState.RUNNING
_FINISHED = ExecutionState.FINISHED
_SPECULATIVE = ShadowMode.SPECULATIVE

# Direct tuple construction for ReadRecord instances: the generated
# NamedTuple ``__new__`` is itself ``tuple.__new__(cls, (...))`` behind a
# Python frame, so this produces indistinguishable objects one frame
# cheaper on the hottest allocation in the step loop.
_new_record = tuple.__new__


class ShadowPool:
    """Preallocated per-transaction slot pool with packed page bitsets.

    Each *active* transaction owns one slot for the duration of its
    residency (arrival to commit).  A slot carries:

    * its transaction id in the slot table :attr:`txn_ids`, a list
      (``-1`` marks a free slot), and
    * two packed page bitsets — :attr:`read_masks` and
      :attr:`write_masks` — mirroring the transaction-level read/write
      page membership of the :class:`~repro.core.conflict_table.AccessIndex`
      (bit ``p`` set iff the index records page ``p``).  The bitsets are
      arbitrary-precision ints: for the page-set sizes this simulation
      uses, CPython's bignum AND/shift is the fastest packed bit vector
      at hand.

    Capacity grows by doubling on exhaustion (:attr:`grow_events` counts
    the growths, for tests exercising the exhaustion path).  Slot
    assignment is deterministic: slots are handed out lowest-first, so
    identical runs assign identical slots.

    Parameters
    ----------
    capacity : int, optional
        Initial number of slots; must be positive.

    Raises
    ------
    ConfigurationError
        If ``capacity`` is not positive.
    """

    __slots__ = (
        "capacity",
        "txn_ids",
        "read_masks",
        "write_masks",
        "slot_of",
        "grow_events",
        "_free",
    )

    def __init__(self, capacity: int = DEFAULT_POOL_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"shadow pool capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.txn_ids: list[int] = [-1] * capacity
        self.read_masks: list[int] = [0] * capacity
        self.write_masks: list[int] = [0] * capacity
        self.slot_of: dict[int, int] = {}
        self.grow_events = 0
        # Stack of free slots, arranged so pop() yields ascending ids.
        self._free = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self.slot_of)

    @property
    def free_slots(self) -> int:
        """Number of currently unoccupied slots."""
        return len(self._free)

    def acquire(self, txn_id: int) -> int:
        """Assign a slot to an arriving transaction.

        Parameters
        ----------
        txn_id : int
            The arriving transaction; must not already hold a slot.

        Returns
        -------
        int
            The assigned slot index.

        Raises
        ------
        ProtocolError
            If the transaction already holds a slot.
        """
        if txn_id in self.slot_of:
            raise ProtocolError(f"T{txn_id} already holds a shadow-pool slot")
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        self.slot_of[txn_id] = slot
        self.txn_ids[slot] = txn_id
        return slot

    def release(self, txn_id: int) -> None:
        """Return a departing transaction's slot to the free pool.

        Parameters
        ----------
        txn_id : int
            The committing (departing) transaction.

        Raises
        ------
        ProtocolError
            If the transaction holds no slot.
        """
        slot = self.slot_of.pop(txn_id, None)
        if slot is None:
            raise ProtocolError(f"T{txn_id} holds no shadow-pool slot")
        self.txn_ids[slot] = -1
        self.read_masks[slot] = 0
        self.write_masks[slot] = 0
        self._free.append(slot)

    def live_slots(self) -> list[int]:
        """Indices of occupied slots, ascending."""
        return [slot for slot, txn_id in enumerate(self.txn_ids) if txn_id >= 0]

    def _grow(self) -> None:
        """Double the capacity, preserving every occupied slot in place."""
        old = self.capacity
        new = old * 2
        self.txn_ids.extend([-1] * old)
        self.read_masks.extend([0] * old)
        self.write_masks.extend([0] * old)
        # New slots stacked so pop() keeps yielding ascending ids.
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new
        self.grow_events += 1


def _page_mask(pages) -> int:
    """The packed bitset of a collection of distinct page ids."""
    return sum(1 << page for page in pages)


class FusedSCCStepDriver:
    """The SCC step loop of one (protocol, system) binding.

    Built by :meth:`~repro.core.scc_base.SCCProtocolBase.bind`, which
    forwards the protocol's ``on_arrival``, ``commit_transaction`` and
    ``_advance`` here.  Every handle the loop needs — database pages,
    the access index's backing dicts, the runtime map, the resource
    manager's ``request`` — is resolved once here.  Besides the
    :class:`ShadowPool` and a reverse conflict index (a superset by
    construction), the driver keeps copies of state held elsewhere;
    :meth:`check_mirrors` checks each copy.

    Parameters
    ----------
    protocol : SCCProtocolBase
        The protocol being bound.
    system : RTDBSystem
        The system it is bound to, under any resource model.
    """

    __slots__ = (
        "pool",
        "_protocol",
        "_pages",
        "_num_pages",
        "_runtimes",
        "_page_readers",
        "_page_writers",
        "_txn_reads",
        "_txn_writes",
        "_conflict_readers",
        "_versions",
        "_cohorts",
        "_step",
    )

    def __init__(self, protocol: "SCCProtocolBase", system: "RTDBSystem") -> None:
        self.pool = ShadowPool(DEFAULT_POOL_CAPACITY)
        self._protocol = protocol
        self._pages = system.db._pages
        self._num_pages = system.db.num_pages
        self._runtimes = protocol._runtimes
        index = protocol._index
        self._page_readers = index._page_readers
        self._page_writers = index._page_writers
        self._txn_reads = index._txn_reads
        self._txn_writes = index._txn_writes
        # Pre-populate the writer half of the borrowed index with one
        # (initially empty) set per database page: the loop then reaches
        # writer sets by plain subscript (arrival bounds-checks the whole
        # program column), and commit cleanup leaves drained sets in
        # place instead of deleting them.  The AccessIndex query API
        # treats an empty entry and a missing one identically, and writer
        # sets are only ever *accumulated* over (Read Rule probes feeding
        # the conflict table), so their iteration order is unobservable.
        # The reader half must NOT get this treatment: the Write Rule
        # broadcast iterates a copy of the reader set, whose order is
        # part of the deterministic result, so reader sets keep the
        # delete-on-empty/recreate lifecycle of
        # ``AccessIndex.remove_txn``/``add_read``.
        for page in range(self._num_pages):
            if page not in self._page_writers:
                self._page_writers[page] = set()
        # Reverse conflict index: writer id -> txn ids whose conflict
        # table (may) hold a record naming that writer.  Entries are
        # added whenever a record is created and never removed before
        # the writer's commit, so at commit time the set is a superset
        # of the transactions the effects sweep must touch — stale
        # entries are harmless because ``_process_commit_effects`` is a
        # strict no-op for them.
        self._conflict_readers: dict[int, set[int]] = {}
        # Committed-version mirror: ``_versions[page]`` always equals
        # ``_pages[page].version`` (resynced after every commit), so the
        # per-access version read is a plain list index.
        self._versions = [page.version for page in self._pages]
        # Per-transaction dispatch cohort, built at arrival and dropped
        # at commit: ``(pages, writes, reads, written, slot, runtime)``
        # — the step program's columns, the transaction's read-position
        # dict and written-page set inside the access index, its pool
        # slot, and its runtime.  The cohort rides inside every service
        # request's payload, so the step frame unpacks six hot handles
        # instead of probing five dicts per access.
        self._cohorts: dict[int, tuple] = {}
        # Built last: the closure captures everything above.
        self._step = self._build_step(system)

    def release(self) -> None:
        """Drop every handle on the run; the driver cannot step again.

        The step closure schedules itself and captures protocol bound
        methods, and the driver points back at its protocol: all
        reference cycles, broken here when the run closes.
        """
        for cell in self._step.__closure__:
            del cell.cell_contents
        self._protocol = self._step = None

    # ------------------------------------------------------------------
    # Start Rule and Commit Rule (once per transaction)
    # ------------------------------------------------------------------

    def on_arrival(self, txn: "TransactionSpec") -> None:
        """Apply the Start Rule, then assign the transaction's pool slot.

        Parameters
        ----------
        txn : TransactionSpec
            The arriving transaction.

        Raises
        ------
        KeyError
            If the program names a page outside the database.
        """
        protocol = self._protocol
        txn_id = txn.txn_id
        # The dispatch cohort is installed between runtime registration
        # and the shadow start: ``_start`` requests the first service,
        # and every request payload carries the cohort.
        optimistic = Shadow(txn, ShadowMode.OPTIMISTIC)
        runtime = SCCTxnRuntime(spec=txn, optimistic=optimistic)
        self._runtimes[txn_id] = runtime
        slot = self.pool.acquire(txn_id)
        pages, writes = txn.step_columns()
        num_pages = self._num_pages
        for page in pages:
            # The program is immutable, so one bounds check per column
            # here lets the step frame index the version mirror
            # unguarded.
            if not 0 <= page < num_pages:
                raise KeyError(
                    f"page id {page} out of range [0, {num_pages})"
                )
        # The index entries are created here rather than on the first
        # serviced access: the index's query API treats empty and
        # missing entries identically.
        reads = self._txn_reads.get(txn_id)
        if reads is None:
            reads = self._txn_reads[txn_id] = {}
        written = self._txn_writes.get(txn_id)
        if written is None:
            written = self._txn_writes[txn_id] = set()
        self._cohorts[txn_id] = (pages, writes, reads, written, slot, runtime)
        protocol._emit("spawn", txn_id, optimistic)
        protocol._start(optimistic)

    def commit_transaction(self, runtime: SCCTxnRuntime) -> None:
        """Apply the Commit Rule with a candidate-pruned effects sweep.

        Installs the finished optimistic shadow through
        :meth:`~repro.protocols.base.CCProtocol._commit`, kills the
        committer's speculative shadows, then runs
        ``_process_commit_effects`` over the other transactions.  For
        time-invariant coverage policies that sweep only visits
        *candidates*: readers of an installed page (from the access
        index) plus every transaction the reverse conflict index names
        against the committer.  Any other runtime has no exposed read
        and no conflict record naming the committer, so the effects pass
        would be a strict no-op for it — as it is for stale candidates.

        Parameters
        ----------
        runtime : SCCTxnRuntime
            The transaction whose finished optimistic shadow commits.

        Raises
        ------
        ProtocolError
            If the runtime has no finished optimistic shadow.
        """
        protocol = self._protocol
        shadow = runtime.optimistic
        if shadow.state is not _FINISHED:
            raise ProtocolError(
                f"T{runtime.txn_id} has no finished shadow to commit"
            )
        committer_id = runtime.txn_id
        # A keys view, not a set copy: the writeset is frozen once the
        # shadow finishes, and every consumer only reads it.
        write_pages = shadow.writeset.keys()
        protocol._commit(shadow)
        versions = self._versions
        pages = self._pages
        for page in write_pages:
            versions[page] = pages[page].version
        protocol._emit("commit", committer_id, shadow)
        for speculative in runtime.speculatives.values():
            if speculative.alive:
                protocol._emit("kill", committer_id, speculative)
            protocol._kill(speculative)
        runtime.speculatives.clear()
        del self._runtimes[committer_id]
        # Inline of AccessIndex.remove_txn over the cached containers.
        # Reader sets keep the delete-on-empty lifecycle (set identity
        # history feeds the Write Rule broadcast's copy order); drained
        # writer sets stay in place (pre-populated, one per page).
        page_readers = self._page_readers
        for page in self._txn_reads.pop(committer_id, ()):
            readers = page_readers.get(page)
            if readers is not None:
                readers.discard(committer_id)
                if not readers:
                    del page_readers[page]
        page_writers = self._page_writers
        for page in self._txn_writes.pop(committer_id, ()):
            page_writers[page].discard(committer_id)
        self._cohorts.pop(committer_id, None)
        self.pool.release(committer_id)
        protocol._termination.on_departure(runtime)
        process = protocol._process_commit_effects
        if protocol._coverage_time_invariant:
            candidates: set[int] = set()
            for page in write_pages:
                readers = page_readers.get(page)
                if readers:
                    candidates.update(readers)
            extra = self._conflict_readers.pop(committer_id, None)
            if extra:
                candidates.update(extra)
            if len(candidates) == 1:
                # With one candidate the ordered scan can only ever make
                # one call, so the runtimes walk is pure overhead.
                other = self._runtimes.get(next(iter(candidates)))
                if other is not None:
                    process(other, committer_id, write_pages)
            elif candidates:
                for other_id, other in list(self._runtimes.items()):
                    if other_id in candidates:
                        process(other, committer_id, write_pages)
        else:
            for other in list(self._runtimes.values()):
                process(other, committer_id, write_pages)
        protocol._termination.on_system_change()

    # ------------------------------------------------------------------
    # the step loop (hot: once per simulated page access)
    # ------------------------------------------------------------------

    def advance(self, execution: Shadow) -> None:
        """Drive the next step of a running shadow (or finish it).

        Parameters
        ----------
        execution : Shadow
            The RUNNING shadow to drive.

        Raises
        ------
        ProtocolError
            If the execution is not RUNNING or is not a shadow.
        """
        if execution.state is not _RUNNING:
            raise ProtocolError(f"cannot advance {execution!r}")
        if not isinstance(execution, Shadow):
            raise ProtocolError("SCC protocols only drive Shadow executions")
        self._step(
            execution,
            execution.epoch,
            self._cohorts[execution.txn.txn_id],
            False,
        )

    def _build_step(self, system: "RTDBSystem"):
        """Build the per-access step function as a closure.

        The frame runs once per simulated page access, so it reads its
        hot handles (index dicts, pool mirrors, the request method — all
        identity-stable for the binding's life) from closure cells
        instead of driver attributes.

        Parameters
        ----------
        system : RTDBSystem
            The system being bound.

        Returns
        -------
        callable
            ``step(execution, epoch, cohort, serviced=True)``: the
            service-completion callback of every request, and the entry
            :meth:`advance` calls with ``serviced=False``.

        Raises
        ------
        InvariantViolation
            (From the returned callable.)  If the Write Rule finds a
            reader whose read the index never recorded.
        """
        protocol = self._protocol
        sim = system.sim
        request = system.resources.request
        step_time = protocol._step_time
        tracer = protocol._tracer
        versions = self._versions
        txn_reads = self._txn_reads
        page_readers = self._page_readers
        page_writers = self._page_writers
        runtimes = self._runtimes
        slot_of = self.pool.slot_of
        read_masks = self.pool.read_masks
        write_masks = self.pool.write_masks
        conflict_readers = self._conflict_readers
        # Single-page bitmasks: probing ``mask & page_bits[page]`` skips
        # the per-probe ``1 << page`` big-int shift.
        page_bits = [1 << page for page in range(self._num_pages)]
        # Bound once: none of these is rebound after the protocol binds.
        rebuild = protocol._rebuild_speculation
        on_finished = protocol._on_finished
        block = protocol._block
        emit = protocol._emit

        def step(
            execution: Shadow, epoch: int, cohort: tuple, serviced: bool = True
        ) -> None:
            """Record a serviced access, then request the next one."""
            if execution.epoch != epoch or execution.state is not _RUNNING:
                return  # the execution was aborted/blocked while in service
            pages_of, writes_of, reads, written, slot, runtime = cohort
            txn_id = runtime.txn_id
            # No simulated time passes inside this frame.
            now = sim.now
            if serviced:
                pos = execution.pos
                page = pages_of[pos]
                version = versions[page]
                # The readset transition of ``record_access``: a first
                # access keeps its own position, a re-access keeps the
                # first position but observes the latest version and time.
                readset = execution.readset
                prior = readset.get(page)
                if prior is None:
                    position = pos
                    # AccessIndex.add_read's position half.  On a
                    # re-access the index already holds a position <=
                    # prior[0] (recorded when this shadow first read the
                    # page), so the min-update is skipped.
                    prior_pos = reads.get(page)
                    if prior_pos is None or pos < prior_pos:
                        reads[page] = pos
                else:
                    position = prior[0]
                readset[page] = _new_record(ReadRecord, (position, version, now))
                is_write = writes_of[pos]
                # Only the first write of a page enters the writeset.
                if is_write and page not in execution.writeset:
                    execution.writeset[page] = pos
                execution.pos = pos + 1
                execution.work += step_time
                if tracer is not None:
                    tracer.emit(
                        "step_complete",
                        now,
                        txn_id,
                        serial=execution.serial,
                        mode=execution.mode.value,
                        pos=pos,
                        data={"page": page, "write": is_write},
                    )
                # AccessIndex.add_read's reader half: the index learns of
                # the read at completion time.
                readers = page_readers.get(page)
                if readers is None:
                    readers = page_readers[page] = {txn_id}
                else:
                    readers.add(txn_id)
                bit = page_bits[page]
                read_masks[slot] |= bit
                # Read Rule, completion-time half: a write recorded while
                # this read was in flight was missed by both the
                # pre-access check and the writer's Write Rule pass (the
                # read was not yet recorded); the table is idempotent.
                changed = False
                writers = page_writers[page]
                if writers:
                    conflicts = runtime.conflicts
                    for writer in writers:
                        if writer != txn_id and conflicts.record(
                            writer, page, position
                        ):
                            changed = True
                            existing = conflict_readers.get(writer)
                            if existing is None:
                                conflict_readers[writer] = {txn_id}
                            else:
                                existing.add(txn_id)
                # A speculative shadow may have completed a read of a page
                # its *waited* writer wrote while the read was in flight;
                # force a rebuild so it is replaced (paper Figure 5).
                if not changed and execution.mode is _SPECULATIVE:
                    for writer in execution.wait_for:
                        writer_slot = slot_of.get(writer)
                        if (
                            writer_slot is not None
                            and write_masks[writer_slot] & bit
                        ):
                            changed = True
                            break
                if changed:
                    rebuild(runtime)
                if is_write:
                    # AccessIndex.add_write over the cohort's written-page
                    # set.  Speculation rebuilds never mutate the access
                    # index, so ``writers`` is still current.
                    newly_written = page not in written
                    written.add(page)
                    writers.add(txn_id)
                    if newly_written:
                        write_masks[slot] |= bit
                        # Write Rule: broadcast to everyone who already
                        # read the page.  The set(...) copy is deliberate:
                        # rebuilds schedule events, so the copy's
                        # iteration order is part of the deterministic
                        # result the golden reference was recorded under.
                        for reader in set(readers):
                            if reader == txn_id:
                                continue
                            other = runtimes.get(reader)
                            if other is None:
                                continue
                            try:
                                reader_pos = txn_reads[reader][page]
                            except KeyError:
                                raise InvariantViolation(
                                    f"no recorded read of page {page} by "
                                    f"T{reader}"
                                ) from None
                            if other.conflicts.record(txn_id, page, reader_pos):
                                existing = conflict_readers.get(txn_id)
                                if existing is None:
                                    conflict_readers[txn_id] = {reader}
                                else:
                                    existing.add(reader)
                                rebuild(other)
                if execution.state is not _RUNNING:
                    return
            pos = execution.pos
            if pos >= execution.num_steps:
                # Program exhausted: hand the shadow to on_finished.
                execution.state = _FINISHED
                execution.epoch += 1
                if tracer is not None:
                    tracer.emit(
                        "txn_finish",
                        now,
                        txn_id,
                        serial=execution.serial,
                        mode=execution.mode.value,
                        pos=pos,
                    )
                on_finished(execution)
                return
            page = pages_of[pos]
            if execution.mode is _SPECULATIVE:
                # Blocking Rule: stop before reading anything a waited-on
                # transaction writes (an absent slot is a committed
                # writer, which blocks nothing).
                bit = page_bits[page]
                for writer in execution.wait_for:
                    writer_slot = slot_of.get(writer)
                    if writer_slot is not None and write_masks[writer_slot] & bit:
                        block(execution)
                        emit("block", txn_id, execution)
                        return
            else:
                # Read Rule, before the exposing read, so a forked shadow
                # can still block ahead of it.
                writers = page_writers[page]
                if writers:
                    conflicts = runtime.conflicts
                    changed = False
                    for writer in writers:
                        if writer != txn_id and conflicts.record(
                            writer, page, pos
                        ):
                            changed = True
                            existing = conflict_readers.get(writer)
                            if existing is None:
                                conflict_readers[writer] = {txn_id}
                            else:
                                existing.add(txn_id)
                    if changed:
                        rebuild(runtime)
            execution.step_started_at = now
            request(execution, step, execution, execution.epoch, cohort)

        return step

    # ------------------------------------------------------------------
    # runtime checks
    # ------------------------------------------------------------------

    def check_mirrors(self) -> None:
        """Raise :class:`InvariantViolation` where a loop-held copy drifted.

        Checked: the active transactions are exactly those holding a
        pool slot and a dispatch cohort; each cohort names the
        transaction's runtime, slot, program columns and index entries;
        each slot's read and write bitsets equal the transaction's pages
        in the :class:`~repro.core.conflict_table.AccessIndex`; free
        slots are empty; and the committed-version list equals the
        database.
        """
        pool = self.pool
        runtimes = self._runtimes
        active = sorted(runtimes)
        if sorted(pool.slot_of) != active:
            raise InvariantViolation(
                f"pool slots are held by {sorted(pool.slot_of)}, but the "
                f"active transactions are {active}"
            )
        if sorted(self._cohorts) != active:
            raise InvariantViolation(
                f"dispatch cohorts exist for {sorted(self._cohorts)}, but "
                f"the active transactions are {active}"
            )
        if pool.live_slots() != sorted(pool.slot_of.values()):
            raise InvariantViolation(
                "the pool's slot table disagrees with its slot map"
            )
        for slot in pool._free:
            if pool.read_masks[slot] or pool.write_masks[slot]:
                raise InvariantViolation(f"free pool slot {slot} has page bits")
        for txn_id, runtime in runtimes.items():
            slot = pool.slot_of[txn_id]
            pages, writes, reads, written, cohort_slot, cohort_runtime = (
                self._cohorts[txn_id]
            )
            if (
                pool.txn_ids[slot] != txn_id
                or cohort_slot != slot
                or cohort_runtime is not runtime
                or reads is not self._txn_reads.get(txn_id)
                or written is not self._txn_writes.get(txn_id)
                or (pages, writes) != runtime.spec.step_columns()
            ):
                raise InvariantViolation(
                    f"T{txn_id}: dispatch cohort or slot {slot} does not "
                    f"match its runtime and index entries"
                )
            if pool.read_masks[slot] != _page_mask(reads):
                raise InvariantViolation(
                    f"T{txn_id}: read bitset of slot {slot} differs from "
                    f"its read pages {sorted(reads)}"
                )
            if pool.write_masks[slot] != _page_mask(written):
                raise InvariantViolation(
                    f"T{txn_id}: write bitset of slot {slot} differs from "
                    f"its written pages {sorted(written)}"
                )
        for page, version in enumerate(self._versions):
            if self._pages[page].version != version:
                raise InvariantViolation(
                    f"version mirror holds v{version} for page {page}, the "
                    f"database v{self._pages[page].version}"
                )
