"""Sweep runner: protocols × arrival rates × replications.

Variance-reduction discipline: within one (arrival rate, replication)
cell, every protocol sees *literally the same workload* — same arrival
instants, page selections, and update coin-flips — because the workload
stream is derived from ``(seed, replication)`` only.  Confidence intervals
are computed across replications per the paper's 90% rule.

Workload shape is delegated to :mod:`repro.workloads`: each cell builds
its workload via :meth:`~repro.engine.array.WorkloadTensors.from_config`,
so scenario configs (``config.workload``) and the paper baseline take the
same path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.analysis.serializability import check_serializable
from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SweepExecutionError,
)
from repro.experiments.config import ExperimentConfig, check_arrival_rates
from repro.experiments.parallel import (
    CellOutcome,
    SerialSweepExecutor,
    SweepCell,
    SweepExecutor,
    resolve_executor,
)
from repro.metrics.confidence import ConfidenceInterval, mean_confidence_interval
from repro.metrics.stats import MetricsCollector, RunSummary
from repro.protocols.registry import ProtocolSpec, protocol_spec
from repro.results.backends import open_store
from repro.results.fingerprint import cell_fingerprint, config_payload
from repro.results.record import RunRecord
from repro.results.store import BaseRunStore
from repro.protocols.base import CCProtocol
from repro.system.model import RTDBSystem
from repro.system.resources import FiniteResources, InfiniteResources
from repro.telemetry.bus import EventBus
from repro.telemetry.counters import run_telemetry
from repro.telemetry.tracer import JsonlTracer, Tracer

ProtocolFactory = Callable[[], CCProtocol]
#: What a sweep roster entry may be: a registry ProtocolSpec, a compact
#: spec string, or a spec dict.
ProtocolLike = Union[ProtocolSpec, str, dict]


def normalize_protocols(
    protocols: "Mapping[str, ProtocolLike] | Sequence[ProtocolLike]",
) -> dict[str, ProtocolSpec]:
    """Resolve the protocol roster of :func:`run_sweep` to ``{label: spec}``.

    Accepts either a mapping ``{label: entry}`` or a bare sequence of
    entries (labels then come from
    :attr:`~repro.protocols.registry.ProtocolSpec.label`).  Each entry is
    a registry :class:`~repro.protocols.registry.ProtocolSpec`, a compact
    spec string, or a spec dict; the spec both builds the cell's protocol
    and is its store identity.

    Raises:
        ConfigurationError: On an entry that is not a spec (a protocol
            class or other callable included: register its family with
            :func:`~repro.protocols.registry.register_protocol`), on a
            duplicate label, on two labels naming one spec (their cells
            would share fingerprints), or on an empty roster.
    """
    if isinstance(protocols, (str, ProtocolSpec)) or (
        isinstance(protocols, Mapping) and "family" in protocols
    ):
        # A single spec (string, ProtocolSpec, or {"family": ...} dict)
        # passed bare: treat it as a one-protocol roster rather than
        # iterating a string character by character or misreading the
        # spec dict as a {label: spec} mapping.
        items = [(None, protocols)]
    elif isinstance(protocols, Mapping):
        items = list(protocols.items())
    else:
        items = [(None, value) for value in protocols]
    specs: dict[str, ProtocolSpec] = {}
    labels: dict[ProtocolSpec, str] = {}
    for label, value in items:
        spec = protocol_spec(value)
        label = spec.label if label is None else label
        if spec in labels:
            raise ConfigurationError(
                f"protocol labels {labels[spec]!r} and {label!r} name the "
                f"same spec {spec.canonical()!r}; their cells would share "
                "one fingerprint, so list the spec once"
            )
        if label in specs:
            raise ConfigurationError(
                f"duplicate protocol label {label!r} in one sweep; "
                "pass an explicit {label: spec} mapping to give the "
                "variants distinct labels"
            )
        specs[label] = spec
        labels[spec] = label
    if not specs:
        raise ConfigurationError("run_sweep needs at least one protocol")
    return specs


def run_instrumented(
    protocol_factory: ProtocolFactory,
    config: ExperimentConfig,
    arrival_rate: float,
    replication: int = 0,
    tracer: Optional[Tracer] = None,
) -> tuple[RunSummary, dict]:
    """Run one complete simulation; return its summary and telemetry block.

    The telemetry block (see
    :func:`~repro.telemetry.counters.run_telemetry`) carries the run's
    lifecycle counters (arrivals/commits/aborts/restarts/shadow forks and
    prunes/deadline misses), gauges (peak live shadows, peak pending
    events), events fired, and host wall-clock seconds.  It is what
    ``run_sweep`` stores on :class:`~repro.results.record.RunRecord`.

    Args:
        protocol_factory: Zero-arg factory producing the protocol.
        config: Experiment configuration; ``config.num_servers`` picks
            a finite server pool (``None``: infinite resources).
        arrival_rate: Mean arrival rate for this run.
        replication: Replication index (workload stream selector).
        tracer: Optional :class:`~repro.telemetry.tracer.Tracer` sink
            receiving typed lifecycle events.  ``None`` disables tracing
            (the zero-cost default).  Tracing never affects results.

    Raises:
        InvariantViolation: If the committed history is not serializable
            (when ``config.check_serializability`` is set) — a protocol
            bug, never a workload property.
    """
    if config.num_servers is None:
        resources = InfiniteResources(config.cpu_time, config.io_time)
    else:
        resources = FiniteResources(
            config.cpu_time, config.io_time, num_servers=config.num_servers
        )
    system = RTDBSystem(
        protocol=protocol_factory(),
        num_pages=config.num_pages,
        resources=resources,
        metrics=MetricsCollector(warmup_commits=config.warmup_commits),
        record_history=config.check_serializability,
        tracer=tracer,
    )
    try:
        started = time.perf_counter()
        streams = RandomStreams(config.seed).spawn(replication)
        tensors = WorkloadTensors.from_config(config, arrival_rate, streams)
        system.load_workload(tensors)
        system.run()
        wall_clock = time.perf_counter() - started
        if config.check_serializability and system.history is not None:
            if not check_serializable(system.history):
                raise InvariantViolation(
                    f"{system.protocol.name} produced a non-serializable history "
                    f"at rate {arrival_rate}"
                )
        return system.metrics.summary(), run_telemetry(system, wall_clock)
    finally:
        # Reference counting then frees the cell as it ends (or raises).
        system.close()


def run_once(
    protocol_factory: ProtocolFactory,
    config: ExperimentConfig,
    arrival_rate: float,
    replication: int = 0,
    tracer: Optional[Tracer] = None,
) -> RunSummary:
    """Run one complete simulation and return its summary.

    A thin wrapper over :func:`run_instrumented` that discards the
    telemetry block; see it for the argument reference.
    """
    summary, _ = run_instrumented(
        protocol_factory,
        config,
        arrival_rate,
        replication=replication,
        tracer=tracer,
    )
    return summary


@dataclass
class SweepResult:
    """Results of one protocol sweep over arrival rates."""

    protocol: str
    arrival_rates: tuple[float, ...]
    replications: list[list[RunSummary]]  # [rate index][replication]

    def metric(self, extract: Callable[[RunSummary], float]) -> list[float]:
        """Per-rate replication means of one metric."""
        return [
            sum(extract(s) for s in summaries) / len(summaries)
            for summaries in self.replications
        ]

    def confidence(
        self, extract: Callable[[RunSummary], float], level: float = 0.90
    ) -> list[ConfidenceInterval]:
        """Per-rate confidence intervals of one metric."""
        return [
            mean_confidence_interval([extract(s) for s in summaries], level)
            for summaries in self.replications
        ]

    def missed_ratio(self) -> list[float]:
        """Per-rate mean Missed Ratio (%)."""
        return self.metric(lambda s: s.missed_ratio)

    def avg_tardiness(self) -> list[float]:
        """Per-rate mean Average Tardiness over late transactions (s)."""
        return self.metric(lambda s: s.avg_tardiness_late)

    def system_value(self) -> list[float]:
        """Per-rate mean System Value (%)."""
        return self.metric(lambda s: s.system_value)


def build_cells(
    protocol_names: Sequence[str],
    rates: Sequence[float],
    replications: int,
) -> list[SweepCell]:
    """Enumerate the sweep grid in serial order (protocol, rate, replication).

    Raises:
        ConfigurationError: On a repeated arrival rate: its cells would
            share fingerprints, so one grid would compute and store each
            of them twice.
    """
    if len(set(rates)) != len(rates):
        raise ConfigurationError(
            f"arrival rates {list(rates)} repeat a rate; list each rate once"
        )
    cells: list[SweepCell] = []
    for name in protocol_names:
        for rate_index, rate in enumerate(rates):
            for replication in range(replications):
                cells.append(
                    SweepCell(
                        index=len(cells),
                        protocol=name,
                        rate_index=rate_index,
                        arrival_rate=rate,
                        replication=replication,
                    )
                )
    return cells


def assemble_results(
    protocol_names: Sequence[str],
    rates: Sequence[float],
    replications: int,
    outcomes: Sequence[CellOutcome],
) -> dict[str, SweepResult]:
    """Reassemble cell-ordered outcomes into per-protocol sweep results.

    Raises:
        SweepExecutionError: If any cell carries an error record.  All
            failures are attached so callers can inspect every crash at
            once rather than replaying the sweep failure by failure.
    """
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise SweepExecutionError(failures)
    by_index = {outcome.cell.index: outcome for outcome in outcomes}
    results: dict[str, SweepResult] = {}
    cursor = 0
    for name in protocol_names:
        per_rate: list[list[RunSummary]] = []
        for _ in rates:
            summaries: list[RunSummary] = []
            for _ in range(replications):
                summaries.append(by_index[cursor].summary)
                cursor += 1
            per_rate.append(summaries)
        results[name] = SweepResult(
            protocol=name, arrival_rates=tuple(rates), replications=per_rate
        )
    return results


def run_sweep(
    protocols: "Mapping[str, ProtocolLike] | Sequence[ProtocolLike]",
    config: ExperimentConfig,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store: Union[BaseRunStore, str, os.PathLike, None] = None,
    store_backend: Optional[str] = None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
    trace: Union[str, os.PathLike, None] = None,
) -> dict[str, SweepResult]:
    """Run every protocol over the arrival-rate sweep with replications.

    The grid is executed through a :class:`SweepExecutor`.  Because every
    cell's workload stream depends only on ``(seed, replication)``, the
    distributed executor produces summaries bit-identical to the serial
    path.

    With ``store`` set, the sweep becomes *persistent and resumable*:
    cells whose fingerprint (config + workload spec + cell coordinates,
    see :mod:`repro.results.fingerprint`) is already in the store are
    served from it without running, and fresh outcomes are appended
    durably as they complete — a sweep killed mid-grid resumes where it
    died, and the assembled results are bit-identical to a cold run
    (summaries round-trip through canonical JSON exactly).

    Args:
        protocols: The protocol roster, normalized by
            :func:`normalize_protocols`: a ``{label: entry}`` mapping or
            a bare sequence of entries, where each entry is a registry
            :class:`~repro.protocols.registry.ProtocolSpec`, compact spec
            string, or spec dict.  Cells are fingerprinted by the full
            ``family + params`` identity, so two parameterizations can
            never share a cached cell.
        config: Experiment configuration, resource model included
            (``config.num_servers``).
        arrival_rates: Overrides ``config.arrival_rates`` when given.
        executor: A :class:`SweepExecutor` instance, a registry name
            (``"serial"``/``"distributed"``), or ``None`` for the default
            (serial, unless ``workers`` > 1 selects the distributed
            executor).
        workers: Worker-process count for the distributed executor
            (hosts claiming cells from its job board).
        store: An open store (:class:`~repro.results.store.RunStore` or
            :class:`~repro.results.sqlite_store.SQLiteRunStore`) or a
            path, opened via :func:`~repro.results.backends.open_store`
            (existing files are sniffed by content, new paths by
            extension).
        store_backend: Backend name from
            :data:`~repro.results.backends.STORE_BACKENDS` forcing the
            backend for a path-given ``store``; only meaningful with a
            path.
        scenario: Scenario name recorded as metadata on stored records
            (:meth:`~repro.experiments.spec.ExperimentSpec.run` supplies
            it).
        on_event: Optional subscriber for the sweep event stream
            (:class:`~repro.telemetry.bus.SweepEvent`): ``cell_started``
            (serial executor only) and ``cell_completed`` progress ticks
            with ``completed``/``total``/``eta``, plus one
            ``cell_outcome`` per materialized outcome (carrying the
            summary dict and the run's telemetry block; store-served
            cells arrive first, with ``cached: true``).  With a store,
            progress ticks count only the cells run this invocation.
            :class:`~repro.experiments.parallel.ProgressReporter` renders
            the stream as status/ETA lines.
        trace: Optional path; when given, every cell's typed lifecycle
            events are appended to this JSONL trace file, with a
            ``cell_start`` marker line (and a lane-numbering reset)
            between cells.  Requires the serial executor — a single
            trace file cannot be shared across worker hosts.

    Returns:
        name -> :class:`SweepResult`.

    Raises:
        ConfigurationError: On a roster entry that is not a protocol
            spec, two labels naming one spec, or a repeated arrival rate
            — before any cell runs.
        SweepExecutionError: If any cell crashed.  The executor isolates
            failures per cell, so every other cell still runs to completion
            and all error records are reported together.  Failed cells are
            never persisted, so a store-backed rerun retries exactly them.
    """
    if store_backend is not None and store is None:
        raise ConfigurationError(
            "run_sweep(store_backend=...) needs store= (a path to open "
            "with that backend)"
        )
    if arrival_rates is not None:
        check_arrival_rates(arrival_rates)
    rates = tuple(arrival_rates if arrival_rates is not None else config.arrival_rates)
    chosen = resolve_executor(executor, workers=workers)
    specs = normalize_protocols(protocols)
    names = list(specs)
    cells = build_cells(names, rates, config.replications)

    tracer: Optional[JsonlTracer] = None
    if trace is not None:
        if not isinstance(chosen, SerialSweepExecutor):
            raise ConfigurationError(
                "run_sweep(trace=...) requires the serial executor: one "
                "JSONL trace file cannot be shared across worker hosts"
            )
        tracer = JsonlTracer(trace)

    bus: Optional[EventBus] = None
    if on_event is not None:
        bus = EventBus()
        bus.subscribe(on_event)
        if hasattr(chosen, "lifecycle_hook"):
            # The distributed executor reports its worker fleet
            # (spawn/stop/loss, lease-expiry retries) through this seam.
            chosen.lifecycle_hook = bus.publish_lifecycle
    on_progress = bus.publish_progress if bus is not None else None

    def run_cell(cell: SweepCell) -> tuple[RunSummary, dict]:
        if tracer is not None:
            # One marker + a fresh lane numbering per cell, so each
            # cell's event stream is self-contained and reproducible.
            tracer.reset_lanes()
            tracer.write_marker(
                {
                    "marker": "cell_start",
                    "index": cell.index,
                    "protocol": cell.protocol,
                    "arrival_rate": cell.arrival_rate,
                    "replication": cell.replication,
                }
            )
        return run_instrumented(
            specs[cell.protocol],
            config,
            arrival_rate=cell.arrival_rate,
            replication=cell.replication,
            tracer=tracer,
        )

    if store is None:
        try:
            outcomes = chosen.run(
                cells,
                run_cell,
                on_progress=on_progress,
                on_outcome=bus.publish_outcome if bus is not None else None,
            )
        finally:
            if tracer is not None:
                tracer.close()
        return assemble_results(names, rates, config.replications, outcomes)

    owns_store = not isinstance(store, BaseRunStore)
    run_store = open_store(store, backend=store_backend)
    payload = config_payload(config)
    fingerprints = {
        cell.index: cell_fingerprint(
            payload,
            specs[cell.protocol],
            cell.arrival_rate,
            cell.replication,
        )
        for cell in cells
    }
    cached: dict[int, CellOutcome] = {}
    missing: list[SweepCell] = []
    for cell in cells:
        record = run_store.get(fingerprints[cell.index])
        if record is not None:
            cached[cell.index] = CellOutcome(
                cell=cell, summary=record.summary, error=None,
                elapsed=record.elapsed, telemetry=record.telemetry,
            )
        else:
            missing.append(cell)

    if bus is not None:
        # Cached cells never reach the executor; surface them on the bus
        # up front so subscribers see the complete grid.
        for cell in cells:
            if cell.index in cached:
                bus.publish_outcome(cached[cell.index], cached=True)

    def persist(outcome: CellOutcome) -> None:
        # Parent-side, per completed cell: each append is flushed + fsync'd
        # before the next cell's outcome lands, which is what makes a
        # killed sweep resume from its last *completed* cell.
        if outcome.ok:
            run_store.append(
                RunRecord.from_outcome(
                    config, outcome, specs[outcome.cell.protocol],
                    scenario=scenario, config_payload_dict=payload,
                )
            )
        if bus is not None:
            bus.publish_outcome(outcome)

    fresh: dict[int, CellOutcome] = {}
    try:
        if missing:
            for outcome in chosen.run(
                missing, run_cell, on_progress=on_progress, on_outcome=persist
            ):
                fresh[outcome.cell.index] = outcome
    finally:
        if tracer is not None:
            tracer.close()
        if owns_store:
            # Release the append handle we opened; caller-supplied stores
            # manage their own lifecycle.
            run_store.close()
    outcomes = [
        cached[cell.index] if cell.index in cached else fresh[cell.index]
        for cell in cells
    ]
    return assemble_results(names, rates, config.replications, outcomes)
