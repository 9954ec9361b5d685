"""The simulation engine: bucketed dispatch + workload tensors.

Events fire in ascending ``(time, priority, sequence)`` order; the
unique sequence number makes the order total, which is what makes every
run reproducible bit for bit from its seed:

* :class:`ArraySimulator` — batched same-timestamp dispatch.  Events are
  plain ``(priority, sequence, callback, args)`` tuples grouped into
  per-instant *buckets*; the heap orders only the (far fewer) distinct
  timestamps, and one bucket drain dispatches every same-instant event
  through a single vectorized step (one sort + one tight loop, all
  comparisons running in C).
* *Arrival tracks* (:meth:`ArraySimulator.schedule_batch`) — a precomputed
  workload enters the queue as one struct-of-arrays track (sorted times +
  payloads + cursor) instead of N heap pushes, making bulk workload
  loading O(1) per transaction.
* :class:`WorkloadTensors` — the per-replication workload as flat
  struct-of-arrays lists (arrival vector, class vector, flat page and
  write-flag arrays), a sequence that builds each transaction's spec on
  demand.
  :class:`~repro.workloads.generator.TransactionGenerator` draws them;
  this module imports no workload code at module scope (nor
  :mod:`repro.core`, :mod:`repro.protocols` or :mod:`repro.system`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.rng import RandomStreams
from repro.errors import SimulationError
from repro.txn.spec import Step, TransactionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.workloads.generator import DeadlinePolicy

__all__ = ["ArraySimulator", "WorkloadTensors"]


class _ArrivalTrack:
    """One bulk-scheduled batch: sorted times + payloads + a cursor.

    The run loop merges live tracks with the bucket heap by comparing the
    track's next firing time; within an instant, the track's entries merge
    by their (priority, virtual sequence) exactly like bucket entries.
    """

    __slots__ = ("times", "payloads", "callback", "priority", "base", "cursor")

    def __init__(
        self,
        times: list[float],
        payloads: list[tuple],
        callback: Callable[..., Any],
        priority: int,
        base: int,
    ) -> None:
        self.times = times
        self.payloads = payloads
        self.callback = callback
        self.priority = priority
        self.base = base  # sequence number of entry 0
        self.cursor = 0


class ArraySimulator:
    """Discrete-event simulation loop: a clock plus bucketed dispatch.

    Events fire in the deterministic ``(time, priority, sequence)``
    order.  The layout is a heap of *distinct* timestamps plus a dict
    mapping each timestamp to its bucket of pending
    ``(priority, sequence, callback, args)`` tuples.  Draining a bucket
    dispatches every same-instant event in one vectorized step — one
    C-level sort plus a tight loop — so no per-event heap push/pop or
    event-object allocation is paid.

    Three auxiliary structures keep the order exact:

    * a *straggler* heap for events scheduled **at the instant currently
      being drained** (e.g. a zero-delay restart fired from a callback) —
      they must interleave with the rest of the bucket by priority;
    * a *cancelled* set keyed by sequence number (cancellation is lazy:
      a cancelled entry is skipped when its instant drains);
    * *arrival tracks* (:meth:`schedule_batch`): pre-sorted bulk batches
      merged lazily into the run loop instead of being pushed eagerly.

    Attributes
    ----------
    now : float
        Current simulated time (seconds).  Starts at 0.0.
    metered : bool
        When set, :meth:`run` tracks the peak live-event count in
        :attr:`peak_pending` (one integer subtraction and compare per
        fired event).  Off by default for bare-simulator use.
    peak_pending : int
        Highest live pending-event count observed while ``metered``.
    """

    __slots__ = (
        "now",
        "_times",
        "_buckets",
        "_stragglers",
        "_tracks",
        "_cancelled",
        "_sequence",
        "_live",
        "_events_fired",
        "_running",
        "_drain_time",
        "metered",
        "peak_pending",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._times: list[float] = []  # heap of distinct bucket times
        # A bucket is a bare entry tuple for the (dominant) one-event
        # instant, upgraded to a list of entries on same-time collision.
        self._buckets: dict[float, "list[tuple] | tuple"] = {}
        self._stragglers: list[tuple] = []  # heap, only during a drain
        self._tracks: list[_ArrivalTrack] = []
        self._cancelled: set[int] = set()
        self._sequence = 0
        self._live = 0
        self._events_fired = 0
        self._running = False
        self._drain_time: Optional[float] = None
        self.metered = False
        self.peak_pending = 0

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events awaiting execution."""
        return self._live

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> tuple:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Parameters
        ----------
        delay : float
            Non-negative offset from the current time.
        callback : Callable
            Callable invoked when the event fires.
        *args
            Positional arguments forwarded to the callback.
        priority : int, optional
            Same-instant tie-breaker; lower fires first.

        Returns
        -------
        tuple
            An opaque handle usable with :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        # Inlined _push: schedule() runs once per serviced page access, so
        # the extra call frame is measurable on the event-loop benchmark.
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = (priority, sequence, callback, args)
        self._live += 1
        if time == self._drain_time:
            heappush(self._stragglers, entry)
        else:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                # Bare entry: no wrapping list until a collision.
                buckets[time] = entry
                heappush(self._times, time)
            elif type(bucket) is list:
                bucket.append(entry)
            else:
                buckets[time] = [bucket, entry]
        return entry

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> tuple:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Parameters
        ----------
        time : float
            Absolute firing time; must not precede the current clock.
        callback : Callable
            Callable invoked when the event fires.
        *args
            Positional arguments forwarded to the callback.
        priority : int, optional
            Same-instant tie-breaker; lower fires first.

        Returns
        -------
        tuple
            An opaque handle usable with :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock.
        """
        if not (time >= self.now):
            raise SimulationError(
                f"cannot schedule at t={time!r}, which precedes now={self.now!r}"
            )
        return self._push(time, priority, callback, args)

    def _push(
        self, time: float, priority: int, callback: Callable[..., Any], args: tuple
    ) -> tuple:
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = (priority, sequence, callback, args)
        self._live += 1
        if time == self._drain_time:
            # Scheduled for the very instant being drained: it must still
            # interleave by (priority, sequence) with the bucket remainder.
            heappush(self._stragglers, entry)
        else:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                # Bare entry: no wrapping list until a collision.
                buckets[time] = entry
                heappush(self._times, time)
            elif type(bucket) is list:
                bucket.append(entry)
            else:
                buckets[time] = [bucket, entry]
        return entry

    def schedule_batch(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        payloads: Sequence[tuple],
        priority: int = 0,
    ) -> int:
        """Bulk-schedule ``callback(*payloads[i])`` at ``times[i]`` for all i.

        The batch is stored as one struct-of-arrays *track* (times +
        payloads + cursor) and merged lazily into the run loop, so loading
        N events costs O(N) list work instead of N heap pushes.  Each
        entry receives a real sequence number from the simulator-wide
        counter (the whole batch claims a contiguous range), so batch
        entries interleave with individually scheduled events exactly as
        if they had been pushed one by one at this moment.

        Parameters
        ----------
        times : sequence of float
            Absolute firing times; must be non-decreasing and must not
            precede the current clock.
        callback : Callable
            Invoked as ``callback(*payloads[i])`` per entry.
        payloads : sequence of tuple
            Pre-packed positional arguments, parallel to ``times``.
        priority : int, optional
            Same-instant tie-breaker applied to every entry.

        Returns
        -------
        int
            Number of entries scheduled.

        Raises
        ------
        SimulationError
            If called while the simulator is running, if the times are
            not finite floats in non-decreasing order, or if the batch
            starts in the past.
        """
        if self._running:
            raise SimulationError("schedule_batch is not allowed mid-run")
        try:
            times = list(map(float, times))
        except (TypeError, ValueError):
            raise SimulationError(
                "schedule_batch needs a flat times sequence"
            ) from None
        count = len(times)
        if count != len(payloads):
            raise SimulationError(
                f"schedule_batch got {count} times but {len(payloads)} payloads"
            )
        if count == 0:
            return 0
        # One C-level pass.  ``<=`` is false against NaN, so a batch that
        # passes holds no NaN (unless it is a single entry) and an
        # infinity can only sit at either end.
        if not all(map(operator.le, times, islice(times, 1, None))):
            raise SimulationError(
                "schedule_batch times must be non-decreasing (and not NaN)"
            )
        first = times[0]
        if not (math.isfinite(first) and math.isfinite(times[-1])):
            raise SimulationError("schedule_batch times must be finite")
        if not (first >= self.now):
            raise SimulationError(
                f"cannot schedule at t={first!r}, which precedes now={self.now!r}"
            )
        base = self._sequence
        self._sequence = base + count
        self._tracks.append(
            _ArrivalTrack(times, list(payloads), callback, priority, base)
        )
        self._live += count
        return count

    def cancel(self, handle: tuple) -> None:
        """Cancel a pending event.

        Parameters
        ----------
        handle : tuple
            The handle returned by :meth:`schedule` / :meth:`schedule_at`.
            Cancelling the same handle twice is a no-op; handles of events
            that already fired must not be cancelled (the live-event count
            would drift).
        """
        sequence = handle[1]
        if sequence not in self._cancelled:
            self._cancelled.add(sequence)
            self._live -= 1

    def clear(self) -> None:
        """Drop every pending event, straggler, cancellation and arrival track."""
        self._times.clear()
        self._buckets.clear()
        self._stragglers.clear()
        self._tracks.clear()
        self._cancelled.clear()
        self._live = 0

    def _next_track_time(self) -> Optional[float]:
        """Earliest pending track time, pruning exhausted tracks."""
        tracks = self._tracks
        if not tracks:
            return None
        best: Optional[float] = None
        live_tracks = []
        for track in tracks:
            if track.cursor < len(track.times):
                live_tracks.append(track)
                head = track.times[track.cursor]
                if best is None or head < best:
                    best = head
        if len(live_tracks) != len(tracks):
            self._tracks = live_tracks
        return best

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Fire events until the queue drains or a bound is hit.

        Parameters
        ----------
        until : float, optional
            If given, stop once the next event would fire after this time
            (the clock is still advanced to ``until``).
        max_events : int, optional
            If given, stop after firing this many events — a guard against
            accidental non-termination in tests.

        Raises
        ------
        SimulationError
            On re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("ArraySimulator.run is not re-entrant")
        self._running = True
        fired = 0
        times = self._times
        buckets = self._buckets
        stragglers = self._stragglers
        cancelled = self._cancelled
        # Sentinel bounds turn the per-event "was a limit given?" checks
        # into single float comparisons (event times are validated finite).
        budget = float("inf") if max_events is None else max_events
        limit = float("inf") if until is None else until
        metered = self.metered
        peak = self.peak_pending
        # The earliest pending track time is cached across iterations:
        # schedule_batch refuses to add tracks mid-run and cursors only
        # advance in the merge below, so the head goes stale exactly when
        # an instant equal to it is consumed — recomputing there (once
        # per track-bearing instant) replaces the per-event track scan.
        track_time = self._next_track_time()
        try:
            while fired < budget:
                # Track machinery only engages while arrival tracks have
                # pending entries; the pure-schedule case (every event
                # loop in the protocol layer) pays one None check for it.
                if track_time is not None:
                    if times and times[0] <= track_time:
                        t = heappop(times)
                        entries = buckets.pop(t)
                    else:
                        t = track_time
                        entries = []
                    if t > limit:
                        if entries:
                            buckets[t] = entries
                            heappush(times, t)
                        break
                    if t == track_time:
                        # Merge in every track entry due at exactly this
                        # instant, then refresh the cached head.
                        if type(entries) is not list:
                            entries = [entries]
                        for track in self._tracks:
                            track_times = track.times
                            cursor = track.cursor
                            end = len(track_times)
                            if cursor >= end or track_times[cursor] != t:
                                continue
                            track_priority = track.priority
                            track_base = track.base
                            track_callback = track.callback
                            track_payloads = track.payloads
                            while cursor < end and track_times[cursor] == t:
                                entries.append(
                                    (
                                        track_priority,
                                        track_base + cursor,
                                        track_callback,
                                        track_payloads[cursor],
                                    )
                                )
                                cursor += 1
                            track.cursor = cursor
                        track_time = self._next_track_time()
                else:
                    if not times:
                        break
                    t = heappop(times)
                    entries = buckets.pop(t)
                    if t > limit:
                        buckets[t] = entries
                        heappush(times, t)
                        break
                self.now = t
                self._drain_time = t
                # Single-entry instants dominate real runs (distinct
                # continuous event times); such buckets arrive as a bare
                # entry tuple, and firing it without the interleave
                # machinery saves a loop setup (and a list) per event.
                if type(entries) is not list:
                    single = entries
                elif len(entries) == 1:
                    single = entries[0]
                else:
                    single = None
                if single is not None and not stragglers:
                    entry = single
                    if cancelled and entry[1] in cancelled:
                        cancelled.discard(entry[1])
                        self._drain_time = None
                        continue
                    fired += 1
                    entry[2](*entry[3])
                    if metered:
                        pending = self._live - fired
                        if pending > peak:
                            peak = pending
                    if not stragglers:
                        self._drain_time = None
                        continue
                    if fired >= budget:
                        # Suspend mid-instant: the callback scheduled
                        # same-time work that must survive for resume.
                        rest = []
                        while stragglers:
                            rest.append(heappop(stragglers))
                        rest.sort()
                        buckets[t] = rest
                        heappush(times, t)
                        self._drain_time = None
                        break
                    entries = (entry,)
                    count = 1
                    index = 1
                elif single is not None:
                    # One entry, but stragglers must interleave with it.
                    entries = (single,)
                    count = 1
                    index = 0
                else:
                    count = len(entries)
                    # Unique sequence numbers mean the comparison never
                    # reaches the callback element — the sort runs in C.
                    entries.sort()
                    index = 0
                while True:
                    if not stragglers:
                        # Hot branch: nothing was scheduled for this very
                        # instant by an earlier callback.
                        if index >= count:
                            break
                        entry = entries[index]
                        index += 1
                    elif index < count and entries[index] < stragglers[0]:
                        entry = entries[index]
                        index += 1
                    else:
                        entry = heappop(stragglers)
                    if cancelled and entry[1] in cancelled:
                        cancelled.discard(entry[1])
                        continue
                    fired += 1
                    entry[2](*entry[3])
                    if metered:
                        # _live is only batch-decremented in the finally
                        # below; mid-run the live pending count is
                        # _live minus the events already fired.
                        pending = self._live - fired
                        if pending > peak:
                            peak = pending
                    if fired >= budget:
                        # Suspend mid-bucket: the remainder (bucket tail
                        # plus stragglers) goes back as a normal bucket.
                        rest = list(entries[index:])
                        while stragglers:
                            rest.append(heappop(stragglers))
                        if rest:
                            rest.sort()
                            buckets[t] = rest
                            heappush(times, t)
                        break
                self._drain_time = None
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._drain_time = None
            # Fired-event bookkeeping is batched out of the hot loop;
            # cancel() still adjusts _live eagerly.
            self._live -= fired
            self._events_fired += fired
            if metered and peak > self.peak_pending:
                self.peak_pending = peak
            self._running = False

    def step(self) -> bool:
        """Fire exactly one event.  Returns ``False`` when the queue is empty."""
        if self._live == 0:
            return False
        self.run(max_events=1)
        return True


class WorkloadTensors(Sequence):
    """One sweep cell's workload, precomputed as struct-of-arrays tensors.

    The tensors are a sequence of transactions: item ``i`` builds
    transaction ``i``'s :class:`~repro.txn.spec.TransactionSpec` on
    demand, so ``list(tensors)`` is the whole workload.
    :meth:`TransactionGenerator.generate
    <repro.workloads.generator.TransactionGenerator.generate>` draws
    them, one axis at a time, for every arrival process and access
    pattern.

    The tensors are plain lists of Python numbers, so building a spec
    reads them without conversion and no numpy is needed to simulate.

    Attributes
    ----------
    arrivals : list of float
        Arrival instant per transaction, ``n`` entries.
    class_indices : list of int
        Index into ``classes`` per transaction, ``n`` entries.
    step_offsets : list of int
        Prefix sums delimiting each transaction's slice of the flat step
        lists, ``n + 1`` entries.
    pages : list of int
        Flat page ids of every step, one per step.
    write_flags : list of bool
        Flat write flags of every step, one per step.
    """

    __slots__ = (
        "arrivals",
        "class_indices",
        "step_offsets",
        "pages",
        "write_flags",
        "_classes",
        "_step_duration",
        "_deadlines",
    )

    def __init__(
        self,
        arrivals: list[float],
        class_indices: list[int],
        step_offsets: list[int],
        pages: list[int],
        write_flags: list[bool],
        classes: list,
        step_duration: float,
        deadlines: DeadlinePolicy,
    ) -> None:
        self.arrivals = arrivals
        self.class_indices = class_indices
        self.step_offsets = step_offsets
        self.pages = pages
        self.write_flags = write_flags
        self._classes = classes
        self._step_duration = step_duration
        self._deadlines = deadlines

    def __len__(self) -> int:
        """Number of transactions in the workload."""
        return len(self.arrivals)

    def __getitem__(self, index: int) -> TransactionSpec:
        """Build transaction ``index`` from its slice of the tensors.

        The deadline policy maps the arrival, the execution estimate
        (steps × step duration) and the class to the deadline, and
        :meth:`~repro.txn.spec.TransactionSpec.build` derives the rest.
        Each call returns a fresh spec, so one tensor set can feed many
        protocol runs, and a run loaded with the tensors builds each spec
        only when its arrival fires.
        """
        txn_id = range(len(self))[operator.index(index)]
        lo = self.step_offsets[txn_id]
        hi = self.step_offsets[txn_id + 1]
        steps = [
            Step(page, flag)
            for page, flag in zip(self.pages[lo:hi], self.write_flags[lo:hi])
        ]
        txn_class = self._classes[self.class_indices[txn_id]]
        arrival = self.arrivals[txn_id]
        step_duration = self._step_duration
        estimated = len(steps) * step_duration
        deadline = self._deadlines.deadline_for(arrival, estimated, txn_class)
        return TransactionSpec.build(
            txn_id=txn_id,
            arrival=arrival,
            steps=steps,
            txn_class=txn_class,
            step_duration=step_duration,
            deadline=deadline,
        )

    @classmethod
    def from_config(
        cls,
        config: "ExperimentConfig",
        arrival_rate: float,
        streams: RandomStreams,
    ) -> "WorkloadTensors":
        """Draw the workload one sweep cell runs on.

        The cell's generator (:func:`~repro.workloads.generator.build_generator`)
        checks every axis against the config, then draws
        ``config.num_transactions`` transactions.

        Parameters
        ----------
        config : ExperimentConfig
            The experiment configuration (classes, pages, workload spec).
        arrival_rate : float
            The swept arrival rate for this cell.
        streams : RandomStreams
            The cell's named random streams (seed × replication).
        """
        from repro.workloads.generator import build_generator

        generator = build_generator(config, arrival_rate, streams)
        return generator.generate(config.num_transactions)
