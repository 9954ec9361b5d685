"""Trace sinks: the no-op default, an in-memory buffer, and a JSONL writer.

The emission contract is deliberately tiny so the simulation hot path
stays cheap: instrumented code caches the system's tracer once at bind
time and guards every emission with ``if tracer is not None`` — a
disabled run (``tracer=None``) therefore pays one attribute load and one
identity test per potential event, nothing more.  When a tracer *is*
installed, :meth:`Tracer.emit` normalizes the execution serial into a
run-local lane id (see :mod:`repro.telemetry.events`), builds the frozen
:class:`~repro.telemetry.events.TraceEvent`, and hands it to the sink's
:meth:`Tracer.record`.

Tracing never draws from the run's RNG and never schedules or reorders
simulator events, which is what lets the golden determinism gate hold
with tracing on.
"""

from __future__ import annotations

import math
import os
import re
from typing import IO, Any, Dict, List, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.telemetry.events import TraceEvent, encode_payload

#: Strings this pattern accepts serialize as ``"<verbatim>"`` — no JSON
#: escapes, no non-ASCII — so the data fast path below may quote them
#: directly.  Anything else falls back to the real encoder.
_PLAIN_STR = re.compile(r'^[A-Za-z0-9_\-. :/=]*$')


def _encode_data(data: Mapping[str, Any]) -> str:
    """Canonical JSON for a flat data dict, fast-pathing common shapes.

    Event payload data is almost always a couple of identifier keys with
    int/bool/float values (``{"page": 3, "write": false}``); serializing
    those by hand skips the JSON encoder on the tracing hot path.  Any
    shape this cannot provably reproduce byte-for-byte — unsafe strings,
    nested containers, non-finite floats — defers to
    :func:`~repro.telemetry.events.encode_payload`.
    """
    parts = []
    for key in sorted(data):
        if type(key) is not str or not _PLAIN_STR.match(key):
            break
        value = data[key]
        kind = type(value)
        if kind is bool:
            text = "true" if value else "false"
        elif kind is int:
            text = repr(value)
        elif kind is float:
            if not math.isfinite(value):  # json spells inf/nan differently
                break
            text = repr(value)
        elif value is None:
            text = "null"
        elif kind is str and _PLAIN_STR.match(value):
            text = '"' + value + '"'
        else:
            break
        parts.append('"' + key + '":' + text)
    else:
        return "{" + ",".join(parts) + "}"
    return encode_payload(data if type(data) is dict else dict(data))

__all__ = ["JsonlTracer", "MemoryTracer", "NullTracer", "Tracer"]


class Tracer:
    """Base trace sink with run-local lane normalization.

    Subclasses implement :meth:`record`; everything else — lane
    assignment, event construction, the context-manager protocol — is
    shared.  Lanes renumber process-global execution serials into
    0-based first-seen order so traces are reproducible across runs and
    comparable across step loops; :meth:`reset_lanes` restarts the
    numbering (e.g. at sweep-cell boundaries).
    """

    __slots__ = ("_lanes",)

    def __init__(self) -> None:
        self._lanes: Dict[int, int] = {}

    def emit(
        self,
        kind: str,
        time: float,
        txn: int,
        serial: Optional[int] = None,
        mode: Optional[str] = None,
        pos: Optional[int] = None,
        data: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Build one :class:`TraceEvent` and pass it to :meth:`record`.

        Parameters
        ----------
        kind : str
            One of :data:`~repro.telemetry.events.EVENT_KINDS`.
        time : float
            Simulated clock at emission.
        txn : int
            Transaction id.
        serial : int, optional
            Execution serial; mapped to a run-local lane id.
        mode : str, optional
            Shadow mode name for SCC executions.
        pos : int, optional
            Program position of the execution.
        data : Mapping, optional
            Kind-specific extras.
        """
        lane: Optional[int] = None
        if serial is not None:
            lanes = self._lanes
            lane = lanes.get(serial)
            if lane is None:
                lane = len(lanes)
                lanes[serial] = lane
        self.record(
            TraceEvent(
                time=time,
                kind=kind,
                txn=txn,
                lane=lane,
                mode=mode,
                pos=pos,
                data=data if data is not None else {},
            )
        )

    def record(self, event: TraceEvent) -> None:
        """Consume one finished event (subclass responsibility)."""
        raise NotImplementedError

    def reset_lanes(self) -> None:
        """Restart lane numbering (call between independent runs/cells)."""
        self._lanes.clear()

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def __enter__(self) -> "Tracer":
        """Support ``with tracer:`` usage."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the sink when the ``with`` block exits."""
        self.close()


class NullTracer(Tracer):
    """A tracer that discards every event.

    Exists mostly for tests and for symmetric code paths; production
    disabled-tracing uses ``tracer=None`` (cheaper: no call at all).
    """

    __slots__ = ()

    def record(self, event: TraceEvent) -> None:
        """Discard the event."""


class MemoryTracer(Tracer):
    """A tracer that buffers events in a list (``.events``).

    The workhorse for tests and the engine trace suite: two runs'
    ``dicts()`` outputs compare with plain ``==``.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append the event to the in-memory buffer."""
        self.events.append(event)

    def dicts(self) -> List[dict]:
        """The buffered stream as plain dicts (handy for equality diffs)."""
        return [event.to_dict() for event in self.events]


class JsonlTracer(Tracer):
    """A tracer that appends one canonical JSON line per event to a file.

    Accepts a filesystem path (opened ``"w"`` by default and owned —
    :meth:`close` closes it) or an already-open text handle (borrowed —
    :meth:`close` only flushes it).  Besides events, sweep-level code can
    interleave *marker* lines via :meth:`write_marker` to delimit cells;
    readers distinguish the two by the ``"marker"`` key.

    Lines are buffered in memory and written in chunks (order preserved,
    markers included); :meth:`close` drains the buffer, so abandoning a
    tracer without closing it can truncate the file's tail.
    """

    __slots__ = ("_handle", "_owns_handle", "_pending")

    #: Buffered-line high-water mark before a chunked write.
    _CHUNK = 1024

    def __init__(
        self, target: Union[str, "os.PathLike[str]", IO[str]], mode: str = "w"
    ) -> None:
        super().__init__()
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            try:
                self._handle = open(os.fspath(target), mode, encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot open trace file for writing: {exc}"
                ) from exc
            self._owns_handle = True
        self._pending: List[str] = []

    def emit(
        self,
        kind: str,
        time: float,
        txn: int,
        serial: Optional[int] = None,
        mode: Optional[str] = None,
        pos: Optional[int] = None,
        data: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Serialize the event straight to its canonical JSON line.

        Overrides the base implementation to skip the intermediate
        :class:`TraceEvent` construction — this sink only needs the
        line, and the hot path emits tens of thousands of events per
        simulated second.  The encoder sorts keys, so the payload is
        byte-identical to ``TraceEvent(...).to_json_line()``.
        """
        lane: Optional[int] = None
        if serial is not None:
            lanes = self._lanes
            lane = lanes.get(serial)
            if lane is None:
                lane = len(lanes)
                lanes[serial] = lane
        # Hand-assembled canonical line: the outer keys are written in
        # sorted order with compact separators, so the bytes match
        # ``encode_payload(TraceEvent(...).to_dict())`` exactly (kinds
        # and modes come from fixed identifier vocabularies — nothing to
        # escape; floats serialize via shortest-repr either way).  Only
        # the free-form ``data`` block goes through the real encoder.
        pending = self._pending
        pending.append(
            '{"data":'
            + (_encode_data(data) if data else "{}")
            + ',"kind":"' + kind
            + '","lane":' + ("null" if lane is None else str(lane))
            + ',"mode":' + ("null" if mode is None else f'"{mode}"')
            + ',"pos":' + ("null" if pos is None else str(pos))
            + ',"time":' + repr(time)
            + ',"txn":' + str(txn) + "}\n"
        )
        if len(pending) >= self._CHUNK:
            self._drain()

    def record(self, event: TraceEvent) -> None:
        """Write the event as one JSON line."""
        self._pending.append(event.to_json_line() + "\n")
        if len(self._pending) >= self._CHUNK:
            self._drain()

    def write_marker(self, payload: Mapping[str, Any]) -> None:
        """Write a non-event marker line (must contain a ``"marker"`` key)."""
        if "marker" not in payload:
            raise ConfigurationError(
                "trace marker payloads must carry a 'marker' key"
            )
        self._pending.append(encode_payload(dict(payload)) + "\n")

    def _drain(self) -> None:
        self._handle.write("".join(self._pending))
        self._pending.clear()

    def close(self) -> None:
        """Drain the buffer; close the handle if this tracer opened it."""
        if self._pending and not self._handle.closed:
            self._drain()
        if self._owns_handle:
            if not self._handle.closed:
                self._handle.close()
        else:
            self._handle.flush()
