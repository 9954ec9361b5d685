"""ASCII execution timelines for SCC runs (paper-figure-style diagrams).

Attach a :class:`TimelineRecorder` to any SCC protocol's ``observer`` hook
before running, then :meth:`TimelineRecorder.render` draws one lane per
shadow, with the same visual vocabulary as the paper's figures:

* ``=`` executing, ``.`` blocked, ``S`` spawn, ``B`` blocking point,
  ``P`` promotion, ``F`` finished (awaiting commitment), ``C`` commit,
  ``A`` abort, ``R`` restart-from-scratch.

Example output for the Figure 2(b) conflict::

    T0 shadow#0 opt   S==C
    T1 shadow#1 opt   S==×
    T1 shadow#2 spec   SB..P===C

The renderer is deliberately simulation-agnostic: it only consumes the
observer events plus the simulated clock, so it works for any SCC variant
and any workload.  It has two front doors:

* live — :meth:`TimelineRecorder.attach` to an SCC protocol's
  ``observer`` hook before running;
* post-hoc — :meth:`TimelineRecorder.from_trace` over the typed events
  of a recorded trace file
  (:func:`repro.telemetry.events.read_trace`), which works for *any*
  protocol, not just SCC, because traces carry the generic transaction
  lifecycle too.

Rendering is split so other frontends can reuse the layout:
:meth:`TimelineRecorder.rows` returns structured
:class:`TimelineRow` values (label + painted track), and
:meth:`TimelineRecorder.render` merely joins them under a header — the
CLI's ``repro trace timeline`` consumes the same rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._record import FrozenRecord, Record
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scc_base import SCCProtocolBase
    from repro.core.shadow import Shadow


class TimelineEvent(FrozenRecord):
    """One observed shadow-lifecycle event (``lane`` is the shadow serial)."""

    __slots__ = ("time", "kind", "txn_id", "lane", "mode", "position")

    def __init__(
        self, time: float, kind: str, txn_id: int, lane: int, mode: str, position: int
    ) -> None:
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "txn_id", txn_id)
        object.__setattr__(self, "lane", lane)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "position", position)


class TimelineRow(FrozenRecord):
    """One rendered timeline lane, in structured form.

    Attributes:
        txn_id: Transaction the lane belongs to.
        serial: Shadow serial (the lane key).
        mode: Execution mode at spawn (``"optimistic"``,
            ``"speculative"``, or ``"execution"`` for non-shadow lanes).
        promoted: Whether the lane was promoted to optimistic.
        label: The human lane label (``T3 shadow#7 spec    ``).
        track: The painted activity strip (markers + ``=``/``.`` fill),
            right-trimmed.
    """

    __slots__ = ("txn_id", "serial", "mode", "promoted", "label", "track")

    def __init__(
        self,
        txn_id: int,
        serial: int,
        mode: str,
        promoted: bool,
        label: str,
        track: str,
    ) -> None:
        object.__setattr__(self, "txn_id", txn_id)
        object.__setattr__(self, "serial", serial)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "promoted", promoted)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "track", track)


class _Lane(Record):
    __slots__ = ("txn_id", "serial", "mode", "promoted", "events")

    def __init__(
        self,
        txn_id: int,
        serial: int,
        mode: str,
        promoted: bool = False,
        events: Optional[list[TimelineEvent]] = None,
    ) -> None:
        self.txn_id = txn_id
        self.serial = serial
        self.mode = mode
        self.promoted = promoted
        self.events = [] if events is None else events


class TimelineRecorder:
    """Records shadow lifecycle events and renders an ASCII timeline.

    Usage::

        protocol = SCC2S()
        recorder = TimelineRecorder()
        recorder.attach(protocol)
        ... run the system ...
        print(recorder.render())
    """

    _KINDS = {"spawn", "block", "promote", "restart", "kill", "finish", "commit"}

    def __init__(self) -> None:
        self._protocol: Optional["SCCProtocolBase"] = None
        self._lanes: dict[int, _Lane] = {}
        self.events: list[TimelineEvent] = []

    def attach(self, protocol: "SCCProtocolBase") -> None:
        """Install this recorder as the protocol's observer."""
        if protocol.observer is not None:
            raise ConfigurationError("protocol already has an observer")
        self._protocol = protocol
        protocol.observer = self._observe

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _observe(self, kind: str, txn_id: int, shadow: Optional["Shadow"]) -> None:
        if kind not in self._KINDS:  # pragma: no cover - future-proofing
            return
        if shadow is None:  # pragma: no cover - all current events carry one
            return
        now = 0.0
        if self._protocol is not None and self._protocol.system is not None:
            now = self._protocol.system.sim.now
        lane = self._lanes.get(shadow.serial)
        if lane is None:
            lane = _Lane(txn_id=txn_id, serial=shadow.serial, mode=shadow.mode.value)
            self._lanes[shadow.serial] = lane
        if kind == "promote":
            lane.promoted = True
        event = TimelineEvent(
            time=now,
            kind=kind,
            txn_id=txn_id,
            lane=shadow.serial,
            mode=lane.mode,
            position=shadow.pos,
        )
        lane.events.append(event)
        self.events.append(event)

    # ------------------------------------------------------------------
    # trace ingestion
    # ------------------------------------------------------------------

    #: Trace event kind -> observer vocabulary.  ``shadow_fork`` splits
    #: on its ``origin`` payload (restart forks render ``R``); ``abort``
    #: doubles as ``kill`` for non-shadow lanes.
    _TRACE_KINDS = {
        "shadow_fork": "spawn",
        "shadow_prune": "kill",
        "shadow_promote": "promote",
        "block": "block",
        "txn_finish": "finish",
        "commit": "commit",
        "abort": "kill",
    }

    @classmethod
    def from_trace(cls, events) -> "TimelineRecorder":
        """Build a recorder from typed trace events (post-hoc timelines).

        Args:
            events: Iterable of
                :class:`~repro.telemetry.events.TraceEvent` — e.g.
                :func:`repro.telemetry.events.read_trace` over a file
                written by a ``--trace`` run.  Events whose kind has no
                timeline meaning (``txn_start``, ``step_complete``,
                ``vote``, ...) are skipped; events without a lane
                (``restart`` notices) are too.

        Returns:
            A recorder ready to :meth:`render` — no protocol attachment
            involved.
        """
        recorder = cls()
        for ev in events:
            kind = cls._TRACE_KINDS.get(ev.kind)
            if kind is None or ev.lane is None:
                continue
            if kind == "spawn" and (ev.data or {}).get("origin") == "restart":
                kind = "restart"
            lane = recorder._lanes.get(ev.lane)
            if lane is None:
                lane = _Lane(
                    txn_id=ev.txn,
                    serial=ev.lane,
                    mode=ev.mode if ev.mode is not None else "execution",
                )
                recorder._lanes[ev.lane] = lane
            if kind == "promote":
                lane.promoted = True
            if (
                kind == "kill"
                and lane.events
                and lane.events[-1].kind == "kill"
                and lane.events[-1].time == ev.time
            ):
                # A pruned shadow whose abort is also system-recorded
                # emits shadow_prune + abort back to back; one A suffices.
                continue
            event = TimelineEvent(
                time=ev.time,
                kind=kind,
                txn_id=ev.txn,
                lane=ev.lane,
                mode=lane.mode,
                position=ev.pos if ev.pos is not None else 0,
            )
            lane.events.append(event)
            recorder.events.append(event)
        return recorder

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def rows(self, width: int = 72) -> list[TimelineRow]:
        """Lay the recorded run out as structured rows, one per lane.

        Args:
            width: Character budget for the time axis; the run's duration
                is scaled to fit.

        Returns:
            :class:`TimelineRow` values in lane (serial) order; empty
            when nothing was recorded.
        """
        if width < 8:
            raise ConfigurationError(f"width must be >= 8, got {width}")
        if not self.events:
            return []
        t_max = max(e.time for e in self.events)
        scale = (width - 1) / t_max if t_max > 0 else 0.0

        def column(t: float) -> int:
            return min(int(round(t * scale)), width - 1)

        marker = {
            "spawn": "S",
            "block": "B",
            "promote": "P",
            "restart": "R",
            "kill": "A",
            "finish": "F",
            "commit": "C",
        }
        rows = []
        for serial in sorted(self._lanes):
            lane = self._lanes[serial]
            row = [" "] * width
            # Fill activity between consecutive events: '=' while running,
            # '.' while blocked.
            for prev, nxt in zip(lane.events, lane.events[1:]):
                fill = "." if prev.kind == "block" else "="
                for col in range(column(prev.time) + 1, column(nxt.time)):
                    row[col] = fill
            for event in lane.events:
                row[column(event.time)] = marker[event.kind]
            rows.append(
                TimelineRow(
                    txn_id=lane.txn_id,
                    serial=lane.serial,
                    mode=lane.mode,
                    promoted=lane.promoted,
                    label=self._label(lane),
                    track="".join(row).rstrip(),
                )
            )
        return rows

    def render(self, width: int = 72) -> str:
        """Draw the recorded run as one text lane per shadow.

        Args:
            width: Character budget for the time axis; the run's duration
                is scaled to fit.
        """
        rows = self.rows(width)
        if not rows:
            return "(no shadow events recorded)"
        t_max = max(e.time for e in self.events)
        label_width = max(len(row.label) for row in rows)
        lines = [
            f"{row.label.ljust(label_width)}  {row.track}" for row in rows
        ]
        header = f"{'lane'.ljust(label_width)}  0{'-' * (width - 8)}t={t_max:g}"
        return "\n".join([header] + lines)

    @staticmethod
    def _label(lane: _Lane) -> str:
        if lane.mode == "optimistic":
            tag = "opt     "
        elif lane.promoted:
            tag = "spec>opt"
        elif lane.mode == "speculative":
            tag = "spec    "
        else:
            tag = "exec    "
        return f"T{lane.txn_id} shadow#{lane.serial} {tag}"

    def lanes_for(self, txn_id: int) -> list[int]:
        """Shadow serial numbers recorded for one transaction."""
        return sorted(
            serial for serial, lane in self._lanes.items() if lane.txn_id == txn_id
        )

    def events_for(self, txn_id: int) -> list[TimelineEvent]:
        """All events of one transaction in time order."""
        return [e for e in self.events if e.txn_id == txn_id]
