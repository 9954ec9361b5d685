"""Vectorized shadow-pool fast path for the SCC step loop.

The generic step loop (:meth:`repro.protocols.base.CCProtocol._advance` /
``_complete_step`` plus the SCC hooks in
:class:`repro.core.scc_base.SCCProtocolBase`) crosses ~15 Python frames
per simulated page access: complete -> record -> ``after_step`` ->
advance -> ``before_step`` -> resource request -> schedule.  That frame
traffic, not any single computation, is why the SCC step-loop benchmark
pair ran at ~1x after PR 6 vectorized arrivals and dispatch.

This module closes that gap with two pieces:

* :class:`ShadowPool` — a preallocated, grow-by-doubling slot pool of
  per-transaction protocol state: a numpy slot table plus packed page
  *bitsets* (arbitrary-precision ints, CPython's fastest bit array)
  mirroring each active transaction's read/write page membership from the
  :class:`~repro.core.conflict_table.AccessIndex`.  Conflict probes —
  the Blocking Rule's "does my waited writer write this page?", the
  exposure re-check, and the Commit Rule's "did anyone read an installed
  page?" sweep — become single bitset shift/AND reductions instead of
  nested set lookups, and the commit sweep prunes unaffected
  transactions with one AND per active slot.
* :class:`FusedSCCStepDriver` — one fused frame per page access.  When
  :func:`maybe_install_fast_path` verifies eligibility, the driver's
  bound methods are installed as *instance* attributes over
  ``_advance`` / ``_complete_step`` / ``on_arrival`` /
  ``commit_transaction`` (protocol instances carry a ``__dict__``
  precisely so binding-time specialization like this is possible).  The
  fused methods apply the same per-access rules as the generic loop
  (the :func:`~repro.protocols.base.record_access` readset transition,
  first-write-only writeset entries, program exhaustion, the
  stale-completion guard) and the same index updates, in the same
  order, with the same trace emissions — each inline is annotated with
  the generic code it mirrors.

Same-instant service completions already drain as one cohort per
:class:`~repro.engine.array.ArraySimulator` bucket; the fused driver is
the per-entry kernel of that cohort drain, so a bucket of N completions
costs N fused frames instead of ~15N generic ones.

**Bit-identity contract.**  The fast path draws no randomness, allocates
shadow serials through the exact same construction sites as the generic
path (:class:`~repro.core.shadow.Shadow` creation in the shared cold
code), preserves the Write Rule's set-copy iteration order, and defers
every cold transition (fork, kill, promote, restart, rebuild,
termination) to the shared SCC machinery.  The golden gate, the
frozen engine reference, and its trace digests therefore hold
bit-identically with the fast path installed, and
``tests/engine/test_shadow_pool_parity.py`` compares the fused driver
against the generic loop on adversarial schedules.

Eligibility is checked structurally, never assumed: the simulator must
be an :class:`~repro.engine.array.ArraySimulator`, the resource manager
exactly :class:`~repro.system.resources.InfiniteResources` (queueing
semantics stay on the generic path), and the protocol class must not
override any of the fused hooks.  Ineligible bindings silently keep the
generic loop — behaviour, not speed, is the invariant.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.shadow import Shadow, ShadowMode
from repro.engine.array import ArraySimulator
from repro.errors import ConfigurationError, InvariantViolation, ProtocolError
from repro.protocols.base import ExecutionState, ReadRecord
from repro.system.resources import InfiniteResources

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime
    from repro.system.model import RTDBSystem
    from repro.txn.spec import TransactionSpec

__all__ = ["DEFAULT_POOL_CAPACITY", "FusedSCCStepDriver", "ShadowPool",
           "maybe_install_fast_path"]

#: Initial slot capacity of a :class:`ShadowPool`; doubled on exhaustion.
DEFAULT_POOL_CAPACITY = 64

# Hot-loop constants (module-level loads are cheaper than attribute
# chains through the enum class on every access).
_RUNNING = ExecutionState.RUNNING
_FINISHED = ExecutionState.FINISHED
_COMMITTED = ExecutionState.COMMITTED
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

    * its transaction id in the numpy slot table :attr:`txn_ids`
      (``-1`` marks a free slot), and
    * two packed page bitsets — :attr:`read_masks` and
      :attr:`write_masks` — mirroring the transaction-level read/write
      page membership of the :class:`~repro.core.conflict_table.AccessIndex`
      (bit ``p`` set iff the index records page ``p``).  The bitsets are
      arbitrary-precision ints: for the page-set sizes this simulation
      uses, CPython's bignum AND/shift outperforms per-element numpy
      operations while staying a genuine packed bit vector.

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
        self.txn_ids = np.full(capacity, -1, dtype=np.int64)
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

    def live_slots(self) -> np.ndarray:
        """Indices of occupied slots, ascending (a boolean-mask reduction)."""
        return np.flatnonzero(self.txn_ids[: self.capacity] >= 0)

    def _grow(self) -> None:
        """Double the capacity, preserving every occupied slot in place."""
        old = self.capacity
        new = old * 2
        table = np.full(new, -1, dtype=np.int64)
        table[:old] = self.txn_ids
        self.txn_ids = table
        self.read_masks.extend([0] * old)
        self.write_masks.extend([0] * old)
        # New slots stacked so pop() keeps yielding ascending ids.
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new
        self.grow_events += 1


class FusedSCCStepDriver:
    """The fused per-access step loop installed over an eligible protocol.

    One instance is created per (protocol, system) binding by
    :func:`maybe_install_fast_path`; its bound methods replace the
    generic ``_advance``/``_complete_step``/``on_arrival``/
    ``commit_transaction`` as instance attributes.  Every handle the hot
    loop needs — simulator internals, database pages, the access index's
    backing dicts, the runtime map, the tracer — is resolved once here,
    mirroring the bind-time caching discipline of
    :class:`~repro.protocols.base.CCProtocol`.

    The driver mutates the *same* state the generic loop would, in the
    same order; it never owns protocol state of its own beyond the
    :class:`ShadowPool` mirrors.

    Parameters
    ----------
    protocol : SCCProtocolBase
        The bound, eligibility-checked protocol.
    system : RTDBSystem
        The system the protocol is bound to (infinite resources).
    capacity : int, optional
        Initial :class:`ShadowPool` capacity.
    """

    __slots__ = (
        "pool",
        "_protocol",
        "_system",
        "_sim",
        "_pages",
        "_num_pages",
        "_delay",
        "_step_time",
        "_tracer",
        "_runtimes",
        "_page_readers",
        "_page_writers",
        "_txn_reads",
        "_txn_writes",
        "_slot_of",
        "_read_masks",
        "_write_masks",
        "_sim_buckets",
        "_sim_times",
        "_sim_stragglers",
        "_page_bits",
        "_complete_cb",
        "_conflict_readers",
        "_versions",
        "_cohorts",
        "_runtime_cls",
    )

    def __init__(
        self,
        protocol: "SCCProtocolBase",
        system: "RTDBSystem",
        capacity: int = DEFAULT_POOL_CAPACITY,
    ) -> None:
        self.pool = ShadowPool(capacity)
        self._protocol = protocol
        self._system = system
        self._sim = system.sim
        self._pages = system.db._pages
        self._num_pages = system.db.num_pages
        # Exactly the float the generic path computes per request
        # (InfiniteResources.request schedules at cpu_time + io_time).
        self._delay = system.resources.cpu_time + system.resources.io_time
        self._step_time = protocol._step_time
        self._tracer = protocol._tracer
        self._runtimes = protocol._runtimes
        index = protocol._index
        self._page_readers = index._page_readers
        self._page_writers = index._page_writers
        self._txn_reads = index._txn_reads
        self._txn_writes = index._txn_writes
        # Pre-populate the writer half of the borrowed index with one
        # (initially empty) set per database page: the fused paths then
        # reach writer sets by plain subscript (arrival bounds-checks
        # the whole program column), and commit cleanup leaves drained
        # sets in place instead of deleting them.  The generic
        # AccessIndex can't tell — its query API treats an empty entry
        # and a missing one identically — and writer sets are only ever
        # *accumulated* over (Read Rule probes feeding the sorted
        # conflict table), so their iteration order is unobservable.
        # The reader half must NOT get this treatment: the Write Rule
        # broadcast iterates a copy of the reader set, whose order is
        # part of the deterministic result, so reader sets keep the
        # exact delete-on-empty/recreate lifecycle of
        # ``AccessIndex.remove_txn``/``add_read``.
        for page in range(self._num_pages):
            if page not in self._page_writers:
                self._page_writers[page] = set()
        # Container identities are stable for the life of the binding
        # (the pool grows its mask lists with extend, the simulator
        # mutates its bucket dict/heaps in place), so the hot loop can
        # skip the pool/sim attribute hop per probe.
        self._slot_of = self.pool.slot_of
        self._read_masks = self.pool.read_masks
        self._write_masks = self.pool.write_masks
        self._sim_buckets = self._sim._buckets
        self._sim_times = self._sim._times
        self._sim_stragglers = self._sim._stragglers
        # Precomputed single-page bitmasks: probing ``mask & bits[page]``
        # skips the per-probe ``1 << page`` big-int shift, and the table
        # doubles as the write-mask builder on the commit path.
        self._page_bits = [1 << p for p in range(self._num_pages)]
        # Reverse conflict index: writer id -> txn ids whose conflict
        # table (may) hold a record naming that writer.  Entries are
        # added whenever a record is created and never removed before
        # the writer's commit, so at commit time the set is a superset
        # of the transactions the effects sweep must touch — stale
        # entries are harmless because ``_process_commit_effects`` is a
        # strict no-op for them.
        self._conflict_readers: dict[int, set[int]] = {}
        # Committed-version mirror: ``_versions[page]`` always equals
        # ``_pages[page].version``.  Maintained at the driver's install
        # site (and resynced after the cold commit path), it turns the
        # per-step version read into a plain list index instead of a
        # dataclass attribute lookup.
        self._versions = [page.version for page in self._pages]
        # Per-transaction dispatch cohort, built at arrival and dropped
        # at commit: ``(pages, writes, reads, written, slot, runtime)``
        # — the step program's columns, the transaction's read-position
        # dict and written-page set inside the access index, its pool
        # slot, and its runtime.  The cohort tuple rides inside every
        # scheduled completion payload, so the step frame unpacks six
        # hot handles instead of re-probing five dicts per serviced
        # access.
        self._cohorts: dict[int, tuple] = {}
        # Resolved here (not at module scope) to avoid the import cycle
        # with scc_base; the fused arrival constructs runtimes directly.
        from repro.core.scc_base import SCCTxnRuntime

        self._runtime_cls = SCCTxnRuntime
        # The service-completion callback is scheduled once per simulated
        # page access; it is built as a closure so the frame reads its
        # ~15 hot handles from cells instead of driver attributes (and a
        # single binding also avoids a bound-method allocation per
        # schedule).  Built last: it captures everything above.
        self._complete_cb = self._build_complete_step()

    def release(self) -> None:
        """Uninstall from the protocol and drop every handle on the run.

        Undoes :func:`maybe_install_fast_path` and empties the completion
        closure, which schedules itself and captures protocol bound
        methods; both are reference cycles.  The driver cannot step again.
        """
        protocol = self._protocol
        if protocol is None:
            return
        for name in ("_advance", "_complete_step", "on_arrival", "commit_transaction"):
            del protocol.__dict__[name]
        for cell in self._complete_cb.__closure__:
            del cell.cell_contents
        self._protocol = self._system = self._complete_cb = None

    # ------------------------------------------------------------------
    # arrival / departure (cold; pool slot lifecycle rides along)
    # ------------------------------------------------------------------

    def _note_conflict(self, writer: int, reader: int) -> None:
        """Mirror a created/updated conflict record in the reverse index.

        Parameters
        ----------
        writer : int
            The conflicting (uncommitted) writer.
        reader : int
            The transaction whose conflict table recorded the writer.
        """
        creaders = self._conflict_readers
        existing = creaders.get(writer)
        if existing is None:
            creaders[writer] = {reader}
        else:
            existing.add(reader)

    def on_arrival(self, txn: "TransactionSpec") -> None:
        """Apply the Start Rule, then assign the transaction's pool slot.

        Parameters
        ----------
        txn : TransactionSpec
            The arriving transaction.
        """
        protocol = self._protocol
        txn_id = txn.txn_id
        # Inline of SCCProtocolBase.on_arrival (Start Rule), with the
        # dispatch cohort installed *between* runtime registration and
        # the shadow start: ``_start`` schedules the first service
        # completion, and every completion payload carries the cohort.
        optimistic = Shadow(txn, ShadowMode.OPTIMISTIC)
        runtime = self._runtime_cls(spec=txn, optimistic=optimistic)
        self._runtimes[txn_id] = runtime
        slot = self.pool.acquire(txn_id)
        pages, writes = txn.step_columns()
        num_pages = self._num_pages
        for page in pages:
            # Hoisted from the step loop: the generic path bounds-checks
            # inside Database.version on every access; the program is
            # immutable, so checking the whole column here once lets the
            # fused frame index the version mirror unguarded.  (Only the
            # raise site moves — from the offending access to arrival —
            # and only for invalid workloads, which never get that far.)
            if not 0 <= page < num_pages:
                raise KeyError(
                    f"page id {page} out of range [0, {num_pages})"
                )
        # The read-position dict and written-page set are created here
        # rather than lazily on the first serviced access: the index's
        # query API treats empty and missing entries identically, so by
        # the time any consumer looks (Read/Write Rules, commit cleanup)
        # the contents match the generic loop's lazy creation exactly.
        reads = self._txn_reads.get(txn_id)
        if reads is None:
            reads = self._txn_reads[txn_id] = {}
        written = self._txn_writes.get(txn_id)
        if written is None:
            written = self._txn_writes[txn_id] = set()
        self._cohorts[txn_id] = (pages, writes, reads, written, slot, runtime)
        protocol._emit("spawn", txn_id, optimistic)
        protocol._start(optimistic)

    def commit_transaction(self, runtime: "SCCTxnRuntime") -> None:
        """Apply the Commit Rule with a candidate-pruned effects sweep.

        Mirrors :meth:`~repro.core.scc_base.SCCProtocolBase.commit_transaction`
        exactly, except that (for time-invariant coverage policies) the
        per-runtime effects pass only visits *candidates*: readers of an
        installed page (from the access index) plus every transaction the
        reverse conflict index names against the committer.  Any runtime
        outside that union has no exposed read and no conflict record
        naming the committer, which makes ``_process_commit_effects`` a
        strict no-op — and stale candidates are no-ops for the same
        reason — so the pruned sweep is bit-identical to the full one.

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
        # shadow finishes, and every consumer (candidate union, exposure
        # probes in the effects sweep) only reads it.
        write_pages = shadow.writeset.keys()
        system = self._system
        if system.history is not None:
            # Cold path: the serializability oracle needs the read/write
            # version snapshots only RTDBSystem.commit builds.
            protocol._commit(shadow)
            versions = self._versions
            pages = self._pages
            for page in write_pages:
                versions[page] = pages[page].version
        else:
            # Inline of CCProtocol._commit + RTDBSystem.commit for
            # history-off runs: identical checks, state transitions,
            # effects, and trace emissions — the oracle snapshot build is
            # the only thing skipped.
            shadow.state = _COMMITTED
            if committer_id in system._committed_ids:
                raise ProtocolError(f"T{committer_id} committed twice")
            active = system._active
            if committer_id not in active:
                raise ProtocolError(
                    f"T{committer_id} committed without arriving"
                )
            versions = self._versions
            for page, record in shadow.readset.items():
                current = versions[page]
                if record[1] != current:
                    raise InvariantViolation(
                        f"T{committer_id} committing a stale read of page "
                        f"{page}: read v{record[1]}, current v{current}"
                    )
            writeset = shadow.writeset
            if writeset:
                pages = self._pages
                for page in writeset:
                    # Inline of Page.install (version bump + payload +
                    # provenance), mirrored into the version list.
                    page_obj = pages[page]
                    page_obj.version += 1
                    page_obj.value = committer_id
                    page_obj.last_writer = committer_id
                    versions[page] += 1
                system.db.installs += 1
            txn = shadow.txn
            now = self._sim.now
            system.metrics.record_commit(txn, now, shadow.work)
            system._committed_ids.add(committer_id)
            del active[committer_id]
            counters = system.counters
            counters.incr("commits")
            missed = now > txn.deadline
            if missed:
                counters.incr("deadline_misses")
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "commit",
                    now,
                    committer_id,
                    serial=shadow.serial,
                    mode=shadow.mode.value,
                    pos=shadow.pos,
                )
                if missed:
                    tracer.emit(
                        "deadline_miss",
                        now,
                        committer_id,
                        data={"tardiness": now - txn.deadline},
                    )
        protocol._emit("commit", committer_id, shadow)
        for speculative in runtime.speculatives.values():
            if speculative.alive:
                protocol._emit("kill", committer_id, speculative)
            protocol._kill(speculative)
        runtime.speculatives.clear()
        del self._runtimes[committer_id]
        # Inline of AccessIndex.remove_txn over the cached containers.
        # Reader sets follow the generic delete-on-empty lifecycle (set
        # identity history feeds the Write Rule broadcast's copy order);
        # drained writer sets stay in place (pre-populated, one per
        # page) so the hot path subscripts them unconditionally.
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
            # Prune: a runtime is touched only if some shadow of it read
            # an installed page (shadow readsets are subsets of the
            # transaction-level reads, which ``page_readers`` indexes) or
            # its conflict table may name the committer (the reverse
            # conflict index, a superset by construction).  For every
            # other runtime ``_process_commit_effects`` is a strict
            # no-op, and the same holds for stale candidates, so the
            # pruned sweep is bit-identical to the full one.
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
    # the fused step loop (hot: once per simulated page access)
    # ------------------------------------------------------------------

    def _advance(self, execution: Shadow) -> None:
        """Drive the next step of a running shadow (or finish it).

        Fuses the generic ``CCProtocol._advance`` with the SCC
        ``before_step`` (Read + Blocking Rules), the
        ``InfiniteResources.request`` forwarding, and the
        ``ArraySimulator.schedule`` push into one frame.

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
            # Mirrors SCCProtocolBase._as_shadow.
            raise ProtocolError("SCC protocols only drive Shadow executions")
        # NOTE: the step dispatch below is duplicated at the tail of
        # :meth:`_complete_step` (minus the two guards above, which that
        # call site establishes) to save one Python frame per completed
        # access — keep the copies in lockstep.
        protocol = self._protocol
        sim = self._sim
        pos = execution.pos
        if pos >= execution.num_steps:
            # Program exhausted (pos >= num_steps): the generic finish path.
            execution.state = _FINISHED
            execution.epoch += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "txn_finish",
                    sim.now,
                    execution.txn.txn_id,
                    serial=execution.serial,
                    mode=execution.mode.value,
                    pos=pos,
                )
            protocol._on_finished(execution)
            return
        step = execution.txn.steps[pos]
        page = step.page
        if execution.mode is _SPECULATIVE:
            # Blocking Rule (generic before_step, speculative arm): stop
            # before reading anything a waited-on transaction writes.
            # index.writes_page becomes a bitset probe on the writer's
            # pool slot (absent slot == committed writer == no block).
            slot_of = self._slot_of
            write_masks = self._write_masks
            bit = self._page_bits[page]
            for writer in execution.wait_for:
                writer_slot = slot_of.get(writer)
                if writer_slot is not None and write_masks[writer_slot] & bit:
                    protocol._block(execution)
                    protocol._emit("block", execution.txn.txn_id, execution)
                    return
        else:
            # Read Rule (generic before_step, optimistic arm), before the
            # exposing read so a forked shadow can still block ahead of it.
            writers = self._page_writers[page]
            if writers:
                runtime = self._runtimes[execution.txn.txn_id]
                txn_id = runtime.txn_id
                conflicts = runtime.conflicts
                changed = False
                for writer in writers:
                    if writer != txn_id and conflicts.record(writer, page, pos):
                        changed = True
                        self._note_conflict(writer, txn_id)
                if changed:
                    protocol._rebuild_speculation(runtime)
        execution.step_started_at = now = sim.now
        # Inline of InfiniteResources.request + ArraySimulator.schedule
        # (delay is validated positive at resource construction).
        time = now + self._delay
        sequence = sim._sequence
        sim._sequence = sequence + 1
        entry = (
            0,
            sequence,
            self._complete_cb,
            (execution, execution.epoch, self._cohorts[execution.txn.txn_id]),
        )
        sim._live += 1
        if time == sim._drain_time:
            heappush(self._sim_stragglers, entry)
        else:
            buckets = self._sim_buckets
            bucket = buckets.get(time)
            if bucket is None:
                # Bare entry: no wrapping list until a collision.
                buckets[time] = entry
                heappush(self._sim_times, time)
            elif type(bucket) is list:
                bucket.append(entry)
            else:
                buckets[time] = [bucket, entry]

    def _build_complete_step(self):
        """Build the fused service-completion callback as a closure.

        The returned function fuses the generic
        ``CCProtocol._complete_step`` (its per-access rules annotated there),
        the database version read, the SCC ``after_step``
        (completion-time Read Rule, exposure re-check, Write Rule
        broadcast), the access-index updates, and the pool bitset mirrors
        into one frame, then runs the fused tail of :meth:`_advance`
        in place.  It is a closure rather than a method so the frame
        reads its hot handles (index dicts, pool mirrors, simulator
        internals — all identity-stable for the binding's life) from
        cells instead of repeated driver attribute lookups: the frame
        runs once per simulated page access.

        Returns
        -------
        callable
            ``complete_step(execution, epoch)``, installed as the
            protocol's ``_complete_step`` and scheduled by every fused
            request inline.

        Raises
        ------
        InvariantViolation
            (From the returned callable.)  If the Write Rule finds an
            unrecorded read (index out of sync — mirrors
            ``AccessIndex.first_read_position``).
        """
        protocol = self._protocol
        versions = self._versions
        sim = self._sim
        step_time = self._step_time
        tracer = self._tracer
        txn_reads = self._txn_reads
        page_readers = self._page_readers
        page_writers = self._page_writers
        runtimes = self._runtimes
        slot_of = self._slot_of
        read_masks = self._read_masks
        write_masks = self._write_masks
        page_bits = self._page_bits
        conflict_readers = self._conflict_readers
        delay = self._delay
        buckets = self._sim_buckets
        times = self._sim_times
        stragglers = self._sim_stragglers
        # Bound once: ``_rebuild_speculation``/``_block``/``_emit`` are
        # plain class methods and ``_on_finished`` is cached on the
        # instance at protocol construction — none is rebound after the
        # driver installs.
        rebuild = protocol._rebuild_speculation
        on_finished = protocol._on_finished
        block = protocol._block
        emit = protocol._emit

        def complete_step(execution: Shadow, epoch: int, cohort: tuple) -> None:
            """Record a serviced access and keep the shadow going."""
            if execution.epoch != epoch or execution.state is not _RUNNING:
                return  # the execution was aborted/blocked while in service
            # The arrival-built cohort rides in the event payload: the
            # step program's columns, this transaction's read-position
            # dict and written-page set, its pool slot, and its runtime —
            # six handles that would otherwise cost a dict probe each,
            # every access.
            pages_of, writes_of, reads, written, slot, runtime = cohort
            pos = execution.pos
            txn_id = runtime.txn_id
            page = pages_of[pos]
            # Inline of Database.version; the bounds check ran against
            # the whole program column at arrival, so the mirror read is
            # unguarded here.
            version = versions[page]
            now = sim.now
            # Inline of record_access: first access keeps its own
            # position, a re-access keeps the first position but observes
            # the latest committed version and time.
            readset = execution.readset
            prior = readset.get(page)
            if prior is None:
                position = pos
                # Inline of AccessIndex.add_read's position half: on a
                # shadow's first access of the page the index may still
                # need its (min) first-read position; on a re-access the
                # index already holds a position <= prior[0] (recorded
                # when this same shadow first read the page), so the
                # min-update is a provable no-op and is skipped.
                prior_pos = reads.get(page)
                if prior_pos is None or pos < prior_pos:
                    reads[page] = pos
            else:
                position = prior[0]
            # tuple.__new__ bypasses the generated NamedTuple __new__
            # frame; the instance is indistinguishable from ReadRecord().
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
            # --- after_step, fused (generic SCCProtocolBase.after_step) --
            # Inline of AccessIndex.add_read's reader half: the global
            # index learns of the read here, at completion time (the
            # position half ran with the readset probe above; ``reads``
            # IS the transaction's entry in the index).  The reader set
            # lifecycle mirrors the generic index exactly — see the
            # pre-population note in ``__init__``.
            readers = page_readers.get(page)
            if readers is None:
                readers = page_readers[page] = {txn_id}
            else:
                readers.add(txn_id)
            bit = page_bits[page]
            read_masks[slot] |= bit
            # Read Rule, completion-time half: re-check writes recorded
            # while this read was in flight (the table is idempotent).
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
            # A speculative shadow may have completed a read of a page its
            # *waited* writer wrote while the read was in flight; force a
            # rebuild so it is replaced (paper Figure 5 semantics).  (The
            # generic path's ``shadow.alive`` guard is elided: the state
            # was RUNNING on entry and nothing above can abort it.)
            if not changed and execution.mode is _SPECULATIVE:
                for writer in execution.wait_for:
                    writer_slot = slot_of.get(writer)
                    if writer_slot is not None and write_masks[writer_slot] & bit:
                        changed = True
                        break
            if changed:
                rebuild(runtime)
            if is_write:
                # Inline of AccessIndex.writes_page + add_write over the
                # cohort's written-page set (the transaction's entry in
                # the index, created at arrival).  Speculation rebuilds
                # never mutate the access index, so the writer set
                # fetched above is still current.
                newly_written = page not in written
                written.add(page)
                writers.add(txn_id)
                if newly_written:
                    write_masks[slot] |= bit
                    # Write Rule: broadcast to everyone who already read
                    # the page.  The set(...) copy is deliberate — rebuild
                    # side effects schedule events, so the copy's
                    # iteration order is part of the deterministic result
                    # and must match the AccessIndex.readers_of copy the
                    # golden reference was recorded under.
                    for reader in set(readers):
                        if reader == txn_id:
                            continue
                        other = runtimes.get(reader)
                        if other is None:
                            continue
                        # Inline of AccessIndex.first_read_position.
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
            # --- fused tail of _advance (guards established above) ----
            pos = execution.pos
            if pos >= execution.num_steps:
                # Program exhausted: the generic finish path.
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
                # Blocking Rule (generic before_step, speculative arm).
                bit = page_bits[page]
                for writer in execution.wait_for:
                    writer_slot = slot_of.get(writer)
                    if writer_slot is not None and write_masks[writer_slot] & bit:
                        block(execution)
                        emit("block", txn_id, execution)
                        return
            else:
                # Read Rule (generic before_step, optimistic arm).
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
            # No simulated time passes inside this frame, so ``sim.now``
            # still equals the ``now`` read at entry.
            execution.step_started_at = now
            # Inline of InfiniteResources.request + ArraySimulator.schedule.
            time = now + delay
            sequence = sim._sequence
            sim._sequence = sequence + 1
            entry = (
                0,
                sequence,
                complete_step,
                (execution, execution.epoch, cohort),
            )
            sim._live += 1
            if time == sim._drain_time:
                heappush(stragglers, entry)
            else:
                bucket = buckets.get(time)
                if bucket is None:
                    # Bare entry: no wrapping list until a collision.
                    buckets[time] = entry
                    heappush(times, time)
                elif type(bucket) is list:
                    bucket.append(entry)
                else:
                    buckets[time] = [bucket, entry]

        return complete_step


def maybe_install_fast_path(
    protocol: "SCCProtocolBase",
    system: "RTDBSystem",
    capacity: int = DEFAULT_POOL_CAPACITY,
) -> Optional[FusedSCCStepDriver]:
    """Install the fused step loop on an eligible (protocol, system) pair.

    Eligibility is structural and conservative — every condition that
    could change behaviour falls back to the generic loop:

    * the simulator is exactly an :class:`~repro.engine.array.ArraySimulator`
      (the fused path pushes into its bucket structures directly);
    * the resource manager is exactly
      :class:`~repro.system.resources.InfiniteResources` (finite pools
      queue, which the fused request inline does not replicate);
    * the protocol class overrides none of the fused hooks
      (``before_step``, ``after_step``, ``_advance``, ``_complete_step``,
      ``on_arrival``, ``commit_transaction``,
      ``_process_commit_effects``) — every shipped SCC variant
      (2S/kS/CB/DC/VW) qualifies because variants specialize only
      coverage policy and termination.

    Parameters
    ----------
    protocol : SCCProtocolBase
        A freshly bound SCC protocol (called from ``bind``).
    system : RTDBSystem
        The system it was bound to.
    capacity : int, optional
        Initial :class:`ShadowPool` slot capacity.

    Returns
    -------
    FusedSCCStepDriver or None
        The installed driver (also exposed as ``protocol.fast_path``),
        or ``None`` when the binding is ineligible.
    """
    from repro.core.scc_base import SCCProtocolBase
    from repro.protocols.base import CCProtocol

    if type(system.sim) is not ArraySimulator:
        return None
    if type(system.resources) is not InfiniteResources:
        return None
    cls = type(protocol)
    if (
        cls.before_step is not SCCProtocolBase.before_step
        or cls.after_step is not SCCProtocolBase.after_step
        or cls.on_arrival is not SCCProtocolBase.on_arrival
        or cls.commit_transaction is not SCCProtocolBase.commit_transaction
        or cls._process_commit_effects
        is not SCCProtocolBase._process_commit_effects
        or cls._advance is not CCProtocol._advance
        or cls._complete_step is not CCProtocol._complete_step
    ):
        return None
    driver = FusedSCCStepDriver(protocol, system, capacity)
    protocol._advance = driver._advance
    protocol._complete_step = driver._complete_cb
    protocol.on_arrival = driver.on_arrival
    protocol.commit_transaction = driver.commit_transaction
    protocol.fast_path = driver
    return driver
