"""Sweep execution: the cell types, the executor registry, and serial runs.

Every sweep cell — one ``(protocol, arrival rate, replication)`` triple —
is fully independent by construction: the workload stream is derived from
``(seed, replication)`` only, so cells can run in any order on any worker
and still produce bit-identical summaries.  This module provides:

* :class:`SweepCell` / :class:`CellOutcome` — the unit of work and its
  result (a :class:`~repro.metrics.stats.RunSummary` or an error record).
* :class:`SerialSweepExecutor` — the in-process reference executor, with
  per-cell fault isolation (a crashed cell yields an error record
  instead of killing the sweep).
* :class:`ProgressReporter` — a sweep event subscriber
  (``run_sweep(on_event=...)``) that prints progress/ETA lines on stderr;
  ``run_sweep`` publishes the executors' :class:`ProgressEvent` ticks on
  that stream.
* :func:`make_executor` / :func:`resolve_executor` — the two registered
  executors, ``serial`` and ``distributed``.  A worker count above one
  selects :class:`~repro.experiments.distributed.DistributedSweepExecutor`,
  whose forked hosts claim cells from a SQLite job board; it is the only
  multi-process path.
"""

from __future__ import annotations

import logging
import sys
import time
import traceback
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from repro._record import FrozenRecord
from repro.errors import ConfigurationError
from repro.metrics.stats import RunSummary

if TYPE_CHECKING:  # import-light: only for annotations
    from repro.telemetry.bus import SweepEvent

__all__ = [
    "CellError",
    "CellOutcome",
    "CellRunner",
    "OutcomeCallback",
    "ProgressEvent",
    "ProgressReporter",
    "SerialSweepExecutor",
    "SweepCell",
    "SweepExecutor",
    "available_executors",
    "make_executor",
    "resolve_executor",
]


class SweepCell(FrozenRecord):
    """One grid point of a sweep, addressable by a stable ``index``.

    ``index`` encodes the serial execution order (protocol-major, then
    rate, then replication) and is what makes parallel reassembly
    deterministic.
    """

    __slots__ = ("index", "protocol", "rate_index", "arrival_rate", "replication")

    def __init__(
        self,
        index: int,
        protocol: str,
        rate_index: int,
        arrival_rate: float,
        replication: int,
    ) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "rate_index", rate_index)
        object.__setattr__(self, "arrival_rate", arrival_rate)
        object.__setattr__(self, "replication", replication)

    def describe(self) -> str:
        return (
            f"{self.protocol} rate={self.arrival_rate:g} "
            f"rep={self.replication}"
        )


class CellError(FrozenRecord):
    """A crashed cell, captured as plain strings so it survives a board row."""

    __slots__ = ("exc_type", "message", "traceback")

    def __init__(self, exc_type: str, message: str, traceback: str) -> None:
        object.__setattr__(self, "exc_type", exc_type)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "traceback", traceback)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


class CellOutcome(FrozenRecord):
    """The result of running one cell: a summary or an error record.

    ``telemetry`` is the run's JSON-ready counter/gauge block (see
    :func:`~repro.telemetry.counters.run_telemetry`) when the runner
    produced one; ``None`` for error outcomes and legacy runners.
    """

    __slots__ = ("cell", "summary", "error", "elapsed", "telemetry")

    def __init__(
        self,
        cell: SweepCell,
        summary: Optional[RunSummary],
        error: Optional[CellError],
        elapsed: float,
        telemetry: Optional[dict] = None,
    ) -> None:
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "error", error)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "telemetry", telemetry)

    @property
    def ok(self) -> bool:
        return self.error is None


class ProgressEvent(FrozenRecord):
    """One structured progress tick.

    ``kind`` is ``"started"`` (serial executor only — the parent cannot
    observe worker-side starts) or ``"completed"``.  ``eta`` is a wall-clock
    estimate of the remaining time, available once at least one cell has
    completed.
    """

    __slots__ = ("kind", "cell", "completed", "total", "elapsed", "eta", "ok")

    def __init__(
        self,
        kind: str,
        cell: SweepCell,
        completed: int,
        total: int,
        elapsed: float,
        eta: Optional[float],
        ok: bool = True,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "completed", completed)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "ok", ok)


#: Cell runners return either a bare RunSummary (legacy) or a
#: ``(RunSummary, telemetry-dict)`` pair; _execute_cell normalizes both.
CellRunner = Callable[[SweepCell], "RunSummary | tuple[RunSummary, Optional[dict]]"]
ProgressCallback = Callable[[ProgressEvent], None]
#: Parent-side hook fired once per materialized outcome (in completion
#: order, not cell order).  This is the persistence seam: the run-record
#: store appends each completed cell here, so a killed sweep keeps every
#: cell that finished before the kill.  Always invoked in the parent
#: process, never in worker hosts.
OutcomeCallback = Callable[[CellOutcome], None]


def _eta(completed: int, total: int, elapsed: float) -> Optional[float]:
    if completed <= 0:
        return None
    return elapsed / completed * (total - completed)


def _execute_cell(cell: SweepCell, runner: CellRunner) -> CellOutcome:
    """Run one cell with fault isolation: exceptions become error records.

    A runner that returns no summary is an error too, so every executor
    reports it alike (a job-board row with neither a summary nor an error
    reads as damage).
    """
    started = time.perf_counter()
    try:
        result = runner(cell)
        if isinstance(result, tuple):
            summary, telemetry = result
        else:
            summary, telemetry = result, None
        if summary is None:
            raise TypeError(f"cell runner returned no summary for {cell.describe()}")
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return CellOutcome(
            cell=cell,
            summary=None,
            error=CellError.from_exception(exc),
            elapsed=time.perf_counter() - started,
        )
    return CellOutcome(
        cell=cell,
        summary=summary,
        error=None,
        elapsed=time.perf_counter() - started,
        telemetry=telemetry,
    )


class SweepExecutor(ABC):
    """Strategy interface: run every cell, return outcomes in cell order."""

    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        cells: Sequence[SweepCell],
        runner: CellRunner,
        on_progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> list[CellOutcome]:
        """Execute all cells and return one outcome per cell, cell-ordered.

        ``on_outcome`` fires in the parent as each outcome materializes
        (completion order); see :data:`OutcomeCallback`.
        """


class SerialSweepExecutor(SweepExecutor):
    """Reference executor: runs cells in order, in this process."""

    name = "serial"

    def run(
        self,
        cells: Sequence[SweepCell],
        runner: CellRunner,
        on_progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> list[CellOutcome]:
        total = len(cells)
        t0 = time.perf_counter()
        outcomes: list[CellOutcome] = []
        for done, cell in enumerate(cells):
            if on_progress is not None:
                on_progress(
                    ProgressEvent(
                        kind="started",
                        cell=cell,
                        completed=done,
                        total=total,
                        elapsed=time.perf_counter() - t0,
                        eta=_eta(done, total, time.perf_counter() - t0),
                    )
                )
            outcome = _execute_cell(cell, runner)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if on_progress is not None:
                elapsed = time.perf_counter() - t0
                on_progress(
                    ProgressEvent(
                        kind="completed",
                        cell=cell,
                        completed=done + 1,
                        total=total,
                        elapsed=elapsed,
                        eta=_eta(done + 1, total, elapsed),
                        ok=outcome.ok,
                    )
                )
        return outcomes


class ProgressReporter:
    """Formats a sweep's event stream into status/ETA lines.

    Implemented on stdlib :mod:`logging`: each reporter owns a detached
    ``Logger`` instance (never registered in the global logger tree, so
    reporters cannot stack handlers on each other or on the ``repro``
    logger) with a message-only ``StreamHandler`` on the given stream.

    A subscriber to the sweep event stream: it renders the
    ``cell_completed`` events (and ``cell_started`` ones with
    ``report_started``) and ignores every other kind::

        run_sweep(protocols, config, on_event=ProgressReporter())
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        report_started: bool = False,
        level: int = logging.INFO,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.report_started = report_started
        logger = logging.Logger("repro.progress", level)
        handler = logging.StreamHandler(self.stream)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        self.logger = logger

    def __call__(self, event: "SweepEvent") -> None:
        if event.kind == "cell_completed":
            kind = "completed"
        elif event.kind == "cell_started" and self.report_started:
            kind = "started"
        else:
            return
        payload = event.payload
        eta = f"{payload['eta']:.0f}s" if payload["eta"] is not None else "?"
        status = "" if payload["ok"] else "  ** FAILED **"
        self.logger.info(
            "  [%d/%d] %-9s %-40s elapsed=%.1fs eta=%s%s",
            payload["completed"],
            payload["total"],
            kind,
            SweepCell(**payload["cell"]).describe(),
            payload["elapsed"],
            eta,
            status,
        )


# ----------------------------------------------------------------------
# executor registry
# ----------------------------------------------------------------------

def _make_serial(workers: Optional[int] = None) -> SerialSweepExecutor:
    # Refuse rather than silently run the whole grid on one core.
    if workers is not None and workers > 1:
        raise ConfigurationError(
            f"the serial executor cannot use workers={workers}; "
            "drop --workers or pick the distributed executor"
        )
    return SerialSweepExecutor()


def _make_distributed(workers: Optional[int] = None) -> SweepExecutor:
    # Imported lazily: distributed.py imports this module for the cell
    # and executor types.
    from repro.experiments.distributed import DistributedSweepExecutor

    return DistributedSweepExecutor(workers=workers)


_EXECUTORS: dict[str, Callable[..., SweepExecutor]] = {
    "serial": _make_serial,
    "distributed": _make_distributed,
}


def available_executors() -> tuple[str, ...]:
    """The registered executor names (``distributed``, ``serial``)."""
    return tuple(sorted(_EXECUTORS))


def _factory(name: str) -> Callable[..., SweepExecutor]:
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; choose from {available_executors()}"
        ) from None


def make_executor(name: str, workers: Optional[int] = None) -> SweepExecutor:
    """Construct an executor by registry name."""
    return _factory(name)(workers=workers)


def resolve_executor(
    executor: "SweepExecutor | str | None",
    workers: Optional[int] = None,
) -> SweepExecutor:
    """Normalize the executor argument accepted by ``run_sweep``.

    ``None`` selects serial — unless a worker count > 1 is requested, which
    selects the distributed executor (hosts claiming cells from the job
    board).  Strings go through :func:`make_executor`; instances pass
    through unchanged.
    """
    return _executor_builder(executor, workers)()


def _executor_builder(
    executor: "SweepExecutor | str | None",
    workers: Optional[int] = None,
) -> Callable[[], SweepExecutor]:
    """Check :func:`resolve_executor`'s arguments now; build on call.

    Every argument error raises here, so ``run_sweep`` can put off
    building the executor (and importing the distributed one) until a
    cell misses its store.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if isinstance(executor, SweepExecutor):
        return lambda: executor
    if executor is None:
        executor = "distributed" if workers is not None and workers > 1 else "serial"
    factory = _factory(executor)
    if executor == "serial":
        serial = factory(workers=workers)  # refuses workers > 1 now
        return lambda: serial
    return lambda: factory(workers=workers)
