"""Unified observability: tracing, counters, sweep events, and logging.

Four small layers, each usable alone:

* :mod:`repro.telemetry.events` / :mod:`repro.telemetry.tracer` — typed
  per-run lifecycle traces (zero-cost when disabled; JSONL or in-memory
  sinks; bit-identical streams from identical runs).
* :mod:`repro.telemetry.counters` — always-on run counters/gauges,
  sampled into the ``telemetry`` block on stored run records.
* :mod:`repro.telemetry.bus` — the structured sweep event stream behind
  ``run_sweep(on_event=...)``.
* :mod:`repro.telemetry.log` — the ``repro`` stdlib logger and its
  one-call configuration.

See docs/ARCHITECTURE.md ("Telemetry & observability") for the event
taxonomy and the overhead contract.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SWEEP_EVENT_KINDS": "repro.telemetry.bus",
    "EventBus": "repro.telemetry.bus",
    "SweepEvent": "repro.telemetry.bus",
    "TELEMETRY_SCHEMA": "repro.telemetry.counters",
    "CounterRegistry": "repro.telemetry.counters",
    "run_telemetry": "repro.telemetry.counters",
    "EVENT_KINDS": "repro.telemetry.events",
    "TraceEvent": "repro.telemetry.events",
    "execution_mode": "repro.protocols.base",
    "is_marker": "repro.telemetry.events",
    "iter_trace": "repro.telemetry.events",
    "read_trace": "repro.telemetry.events",
    "LOG_LEVELS": "repro.telemetry.log",
    "configure_logging": "repro.telemetry.log",
    "get_logger": "repro.telemetry.log",
    "JsonlTracer": "repro.telemetry.tracer",
    "MemoryTracer": "repro.telemetry.tracer",
    "NullTracer": "repro.telemetry.tracer",
    "Tracer": "repro.telemetry.tracer",
})
