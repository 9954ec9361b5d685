"""The sweep event bus: the one structured ``on_event`` stream.

``on_event`` is the only subscriber
:func:`~repro.experiments.runner.run_sweep` takes.  Every lifecycle
moment of a sweep — a cell starting, completing, or yielding its outcome
(with the run's ``telemetry`` block) — is published as one
:class:`SweepEvent` whose payload is plain JSON-ready data; the bus
adapts the executors' internal hooks (:class:`ProgressEvent` ticks,
materialized :class:`CellOutcome` results, distributed fleet events)
into it.  This is the exact stream the experiment gateway
(:mod:`repro.gateway`) serializes to clients over
``GET /experiments/{id}/events``; the CLI,
:class:`~repro.experiments.parallel.ProgressReporter` and tests subscribe
to the same stream in-process via ``run_sweep(on_event=...)``.

Subscribers must not raise (an exception would abort the sweep) and must
not mutate payloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro._record import FrozenRecord

if TYPE_CHECKING:  # import-light: only for annotations
    from repro.experiments.parallel import CellOutcome, ProgressEvent, SweepCell

__all__ = ["SWEEP_EVENT_KINDS", "EventBus", "SweepEvent"]

#: The sweep-level event taxonomy published by :class:`EventBus`.  The
#: ``worker_*``/``cell_retried`` kinds are the distributed executor's
#: fleet lifecycle (host spawn, clean drain, crash, lease-expiry retry);
#: single-process executors never emit them.
SWEEP_EVENT_KINDS = (
    "cell_started",
    "cell_completed",
    "cell_outcome",
    "worker_started",
    "worker_stopped",
    "worker_lost",
    "cell_retried",
)


class SweepEvent(FrozenRecord):
    """One structured sweep lifecycle event.

    Attributes
    ----------
    kind : str
        One of :data:`SWEEP_EVENT_KINDS`.
    payload : dict
        JSON-ready event body (cell coordinates plus kind-specific
        fields; see the ``publish_*`` methods for shapes).
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload: Dict[str, Any]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)

    def to_dict(self) -> dict:
        """The event as one JSON-ready dict (``kind`` + payload fields)."""
        return {"kind": self.kind, **self.payload}


def _cell_payload(cell: "SweepCell") -> Dict[str, Any]:
    """JSON-ready coordinates of one sweep cell."""
    return {
        "index": cell.index,
        "protocol": cell.protocol,
        "rate_index": cell.rate_index,
        "arrival_rate": cell.arrival_rate,
        "replication": cell.replication,
    }


class EventBus:
    """Fan sweep events out to subscribers, adapting the executor hooks.

    ``run_sweep`` builds one bus per sweep when ``on_event`` is given and
    routes the executor's progress/outcome hooks through
    :meth:`publish_progress` / :meth:`publish_outcome`.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: List[Callable[[SweepEvent], None]] = []

    def subscribe(self, callback: Callable[[SweepEvent], None]) -> None:
        """Register a subscriber invoked synchronously on every event."""
        self._subscribers.append(callback)

    def publish(self, event: SweepEvent) -> None:
        """Deliver one event to every subscriber, in subscription order."""
        for callback in self._subscribers:
            callback(event)

    def publish_progress(self, event: "ProgressEvent") -> None:
        """Adapt one :class:`ProgressEvent` tick into a bus event.

        ``started`` ticks become ``cell_started``, ``completed`` ticks
        ``cell_completed`` (payload adds progress counters, elapsed,
        eta, and the ok flag).
        """
        payload = {
            "cell": _cell_payload(event.cell),
            "completed": event.completed,
            "total": event.total,
            "elapsed": event.elapsed,
            "eta": event.eta,
            "ok": event.ok,
        }
        kind = "cell_started" if event.kind == "started" else "cell_completed"
        self.publish(SweepEvent(kind=kind, payload=payload))

    def publish_outcome(self, outcome: "CellOutcome", cached: bool = False) -> None:
        """Adapt one materialized :class:`CellOutcome` into a bus event.

        The payload carries the summary dict, the run's ``telemetry``
        block, error details for crashed cells, and whether the outcome
        was served from the run-record store (``cached``).
        """
        payload: Dict[str, Any] = {
            "cell": _cell_payload(outcome.cell),
            "ok": outcome.ok,
            "elapsed": outcome.elapsed,
            "cached": cached,
            "summary": outcome.summary.to_dict() if outcome.summary else None,
            "telemetry": outcome.telemetry,
        }
        if outcome.error is not None:
            payload["error"] = {
                "type": outcome.error.exc_type,
                "message": outcome.error.message,
            }
        self.publish(SweepEvent(kind="cell_outcome", payload=payload))

    def publish_lifecycle(self, kind: str, payload: Dict[str, Any]) -> None:
        """Adapt one executor lifecycle event into a bus event.

        The distributed executor's parent loop calls this (via its
        ``lifecycle_hook``) for worker fleet moments — ``worker_started``
        / ``worker_stopped`` / ``worker_lost`` and ``cell_retried``.
        The payload is copied, so the executor may reuse its dict.

        Raises:
            ValueError: For a kind outside :data:`SWEEP_EVENT_KINDS` —
                the taxonomy is closed so subscribers can switch on it.
        """
        if kind not in SWEEP_EVENT_KINDS:
            raise ValueError(
                f"unknown sweep event kind {kind!r} "
                f"(choose from {SWEEP_EVENT_KINDS})"
            )
        self.publish(SweepEvent(kind=kind, payload=dict(payload)))
