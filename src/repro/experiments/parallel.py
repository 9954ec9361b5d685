"""Parallel sweep execution: fan the experiment grid out across processes.

Every sweep cell — one ``(protocol, arrival rate, replication)`` triple —
is fully independent by construction: the workload stream is derived from
``(seed, replication)`` only, so cells can run in any order on any worker
and still produce bit-identical summaries.  This module provides:

* :class:`SweepCell` / :class:`CellOutcome` — the unit of work and its
  result (a :class:`~repro.metrics.stats.RunSummary` or an error record).
* :class:`SerialSweepExecutor` — the in-process reference executor.
* :class:`ProcessSweepExecutor` — a ``ProcessPoolExecutor`` fan-out with
  chunked scheduling, deterministic reassembly (outcomes are returned in
  cell order regardless of completion order), and per-cell fault isolation
  (a crashed cell yields an error record instead of killing the sweep).
* :class:`ProgressReporter` — structured progress/ETA lines on stderr.

The process executor prefers the ``fork`` start method so the cell runner
(a closure over protocol factories, which are frequently lambdas and hence
unpicklable) is inherited by workers rather than serialized.  Where fork
is unavailable the executor degrades to the serial path, preserving
results exactly.
"""

from __future__ import annotations

import logging
import math
import os
import sys
import time
import traceback
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO

from repro.errors import ConfigurationError
from repro.metrics.stats import RunSummary

__all__ = [
    "CellError",
    "CellOutcome",
    "CellRunner",
    "OutcomeCallback",
    "ProcessSweepExecutor",
    "ProgressEvent",
    "ProgressReporter",
    "SerialSweepExecutor",
    "SweepCell",
    "SweepExecutor",
    "available_executors",
    "make_executor",
    "resolve_executor",
]


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep, addressable by a stable ``index``.

    ``index`` encodes the serial execution order (protocol-major, then
    rate, then replication) and is what makes parallel reassembly
    deterministic.
    """

    index: int
    protocol: str
    rate_index: int
    arrival_rate: float
    replication: int

    def describe(self) -> str:
        return (
            f"{self.protocol} rate={self.arrival_rate:g} "
            f"rep={self.replication}"
        )


@dataclass(frozen=True)
class CellError:
    """A crashed cell, captured as plain strings so it survives pickling."""

    exc_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


@dataclass(frozen=True)
class CellOutcome:
    """The result of running one cell: a summary or an error record.

    ``telemetry`` is the run's JSON-ready counter/gauge block (see
    :func:`~repro.telemetry.counters.run_telemetry`) when the runner
    produced one; ``None`` for error outcomes and legacy runners.
    """

    cell: SweepCell
    summary: Optional[RunSummary]
    error: Optional[CellError]
    elapsed: float
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress tick.

    ``kind`` is ``"started"`` (serial executor only — the parent cannot
    observe worker-side starts) or ``"completed"``.  ``eta`` is a wall-clock
    estimate of the remaining time, available once at least one cell has
    completed.
    """

    kind: str
    cell: SweepCell
    completed: int
    total: int
    elapsed: float
    eta: Optional[float]
    ok: bool = True


#: Cell runners return either a bare RunSummary (legacy) or a
#: ``(RunSummary, telemetry-dict)`` pair; _execute_cell normalizes both.
CellRunner = Callable[[SweepCell], "RunSummary | tuple[RunSummary, Optional[dict]]"]
ProgressCallback = Callable[[ProgressEvent], None]
#: Parent-side hook fired once per materialized outcome (in completion
#: order, not cell order).  This is the persistence seam: the run-record
#: store appends each completed cell here, so a killed sweep keeps every
#: cell that finished before the kill.  Always invoked in the parent
#: process, never in pool workers.
OutcomeCallback = Callable[[CellOutcome], None]


def _eta(completed: int, total: int, elapsed: float) -> Optional[float]:
    if completed <= 0:
        return None
    return elapsed / completed * (total - completed)


def _execute_cell(cell: SweepCell, runner: CellRunner) -> CellOutcome:
    """Run one cell with fault isolation: exceptions become error records."""
    started = time.perf_counter()
    try:
        result = runner(cell)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return CellOutcome(
            cell=cell,
            summary=None,
            error=CellError.from_exception(exc),
            elapsed=time.perf_counter() - started,
        )
    if isinstance(result, tuple):
        summary, telemetry = result
    else:
        summary, telemetry = result, None
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


# ----------------------------------------------------------------------
# process-pool executor
# ----------------------------------------------------------------------

# Worker-side cell runner, installed by the pool initializer.  Under the
# fork start method the closure (with its lambdas) is inherited, never
# pickled; the work items that cross the queue are plain SweepCells.
_WORKER_RUNNER: Optional[CellRunner] = None


def _init_worker(runner: CellRunner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _run_chunk(cells: Sequence[SweepCell]) -> list[CellOutcome]:
    assert _WORKER_RUNNER is not None, "worker pool initializer did not run"
    return [_execute_cell(cell, _WORKER_RUNNER) for cell in cells]


class ProcessSweepExecutor(SweepExecutor):
    """Fan cells out over a process pool, reassembling in cell order.

    Args:
        workers: Worker process count; ``None`` means ``os.cpu_count()``.
            Must be >= 1 when given.
        chunk_size: Cells per submitted work item; ``None`` sizes chunks to
            roughly four work items per worker, which amortizes IPC while
            keeping the pool load-balanced.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"ProcessSweepExecutor needs workers >= 1, got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"ProcessSweepExecutor needs chunk_size >= 1, got {chunk_size}"
            )
        self.workers = workers
        self.chunk_size = chunk_size

    def _effective_workers(self, num_cells: int) -> int:
        requested = self.workers or os.cpu_count() or 1
        return max(1, min(requested, num_cells))

    def _chunks(
        self, cells: Sequence[SweepCell], workers: int
    ) -> list[list[SweepCell]]:
        size = self.chunk_size or max(1, math.ceil(len(cells) / (workers * 4)))
        return [list(cells[i : i + size]) for i in range(0, len(cells), size)]

    def run(
        self,
        cells: Sequence[SweepCell],
        runner: CellRunner,
        on_progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> list[CellOutcome]:
        if not cells:
            return []
        # Imported here so a serial run never loads the process machinery.
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        if "fork" not in multiprocessing.get_all_start_methods():
            # No fork: the runner closure cannot reach workers unpickled.
            # Degrade to the serial path — results are identical.
            return SerialSweepExecutor().run(cells, runner, on_progress, on_outcome)
        workers = self._effective_workers(len(cells))
        chunks = self._chunks(cells, workers)
        context = multiprocessing.get_context("fork")
        by_index: dict[int, CellOutcome] = {}
        total = len(cells)
        completed = 0
        t0 = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(runner,),
        ) as pool:
            pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = pending.pop(future)
                    try:
                        outcomes = future.result()
                    except Exception as exc:  # noqa: BLE001 - e.g. broken pool
                        error = CellError.from_exception(exc)
                        outcomes = [
                            CellOutcome(cell, None, error, 0.0) for cell in chunk
                        ]
                    for outcome in outcomes:
                        completed += 1
                        by_index[outcome.cell.index] = outcome
                        if on_outcome is not None:
                            on_outcome(outcome)
                        if on_progress is not None:
                            elapsed = time.perf_counter() - t0
                            on_progress(
                                ProgressEvent(
                                    kind="completed",
                                    cell=outcome.cell,
                                    completed=completed,
                                    total=total,
                                    elapsed=elapsed,
                                    eta=_eta(completed, total, elapsed),
                                    ok=outcome.ok,
                                )
                            )
        return [by_index[cell.index] for cell in cells]


class ProgressReporter:
    """Formats :class:`ProgressEvent` streams into status/ETA lines.

    Implemented on stdlib :mod:`logging`: each reporter owns a detached
    ``Logger`` instance (never registered in the global logger tree, so
    reporters cannot stack handlers on each other or on the ``repro``
    logger) with a message-only ``StreamHandler`` on the given stream.

    Usable directly as the ``on_progress`` callback of any executor::

        executor.run(cells, runner, on_progress=ProgressReporter())
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

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == "started" and not self.report_started:
            return
        eta = f"{event.eta:.0f}s" if event.eta is not None else "?"
        status = "" if event.ok else "  ** FAILED **"
        self.logger.info(
            "  [%d/%d] %-9s %-40s elapsed=%.1fs eta=%s%s",
            event.completed,
            event.total,
            event.kind,
            event.cell.describe(),
            event.elapsed,
            eta,
            status,
        )


# ----------------------------------------------------------------------
# executor registry
# ----------------------------------------------------------------------

def _make_serial(
    workers: Optional[int] = None, chunk_size: Optional[int] = None
) -> SerialSweepExecutor:
    # Refuse rather than silently run a multi-hour sweep on one core.
    if workers is not None and workers > 1:
        raise ConfigurationError(
            f"the serial executor cannot use workers={workers}; "
            "drop --workers or pick the process executor"
        )
    return SerialSweepExecutor()


def _make_distributed(
    workers: Optional[int] = None, chunk_size: Optional[int] = None
) -> SweepExecutor:
    # Imported lazily: distributed.py imports this module for the cell
    # and executor types.
    from repro.experiments.distributed import DistributedSweepExecutor

    return DistributedSweepExecutor(workers=workers, chunk_size=chunk_size)


_EXECUTORS: dict[str, Callable[..., SweepExecutor]] = {
    "serial": _make_serial,
    "process": ProcessSweepExecutor,
    "distributed": _make_distributed,
}


def available_executors() -> tuple[str, ...]:
    """The registered executor names (``distributed``, ``process``, ``serial``)."""
    return tuple(sorted(_EXECUTORS))


def make_executor(
    name: str,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> SweepExecutor:
    """Construct an executor by registry name."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; choose from {available_executors()}"
        ) from None
    return factory(workers=workers, chunk_size=chunk_size)


def resolve_executor(
    executor: "SweepExecutor | str | None",
    workers: Optional[int] = None,
) -> SweepExecutor:
    """Normalize the executor argument accepted by ``run_sweep``.

    ``None`` selects serial — unless a worker count > 1 is requested, which
    implies the process executor.  Strings go through :func:`make_executor`;
    instances pass through unchanged.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if isinstance(executor, SweepExecutor):
        return executor
    if executor is None:
        if workers is not None and workers > 1:
            return ProcessSweepExecutor(workers=workers)
        return SerialSweepExecutor()
    return make_executor(executor, workers=workers)
