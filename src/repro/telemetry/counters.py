"""Always-on run counters/gauges and the per-run telemetry block.

Unlike tracing (opt-in, per-event), the counter registry is *always*
attached to :class:`~repro.system.model.RTDBSystem` — the increments sit
on cold paths (arrival, commit, abort, restart, shadow fork/prune), so
the cost is a dict update per lifecycle transition, invisible next to
the per-step simulation work.  At the end of a run,
:func:`run_telemetry` samples the registry plus the engine's metering
gauges into the JSON-ready ``telemetry`` block stored on
:class:`~repro.results.record.RunRecord` (record schema 3).
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["TELEMETRY_SCHEMA", "CounterRegistry", "run_telemetry"]

#: Version tag carried inside every ``telemetry`` block.
TELEMETRY_SCHEMA = 1


class CounterRegistry:
    """A tiny name → value store for monotonic counters and max-gauges.

    Counters move only via :meth:`incr`; gauges record high-water marks
    via :meth:`record_max`.  :meth:`snapshot` returns both, sorted by
    name, ready for JSON.
    """

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def record_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water mark."""
        gauges = self._gauges
        if value > gauges.get(name, float("-inf")):
            gauges[name] = value

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current high-water mark of gauge ``name``."""
        return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Both maps, name-sorted, as plain JSON-ready dicts."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }


def run_telemetry(system: Any, wall_clock: float) -> dict:
    """Assemble the per-run ``telemetry`` block from a finished system.

    Parameters
    ----------
    system : RTDBSystem
        The system after :meth:`~repro.system.model.RTDBSystem.run`.
    wall_clock : float
        Host seconds the run took (measured by the caller).

    Returns
    -------
    dict
        JSON-ready block: schema tag, wall-clock, events fired, peak
        pending-event depth, and the counter/gauge snapshot.
    """
    snap = system.counters.snapshot()
    sim = system.sim
    return {
        "schema": TELEMETRY_SCHEMA,
        "wall_clock": wall_clock,
        "events_fired": sim.events_fired,
        "peak_pending_events": sim.peak_pending,
        "counters": snap["counters"],
        "gauges": snap["gauges"],
    }
