"""Run-time execution-time profiling (paper §3.2's statistics collection).

SCC-DC's finish probabilities need per-class execution-time distributions
``F_u``.  The paper: these "can be obtained off-line from the previous
history of the system, or at run-time from collected statistical
results".  This module implements both:

* :func:`profile_classes` — run a profiling workload under a cheap
  protocol and fit an :class:`~repro.values.distributions.EmpiricalExecution`
  per class from the observed *uncontended* execution times (response
  times of transactions that were never aborted or blocked).
* :class:`OnlineProfiler` — a metrics hook usable during a live run to
  keep class statistics fresh.

Note that under the default deterministic page cost, a class's execution
time is ``num_steps × step_duration`` exactly; profiling matters when the
resource manager is finite (queueing noise) or page costs vary.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from typing import Callable, Optional, Sequence, Union

from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.metrics.stats import MetricsCollector
from repro.protocols.serial import SerialExecution
from repro.system.model import RTDBSystem
from repro.system.resources import InfiniteResources, ResourceManager
from repro.values.classes import TransactionClass
from repro.values.distributions import EmpiricalExecution
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import TransactionGenerator


def capture_profile(
    fn: Callable[[], object],
    sort: str = "tottime",
    limit: int = 30,
    dump_to: Union[str, os.PathLike, None] = None,
) -> tuple[object, str]:
    """Run ``fn`` under ``cProfile`` and return its result plus a report.

    The standard harness for before/after engine profiles: hot-path
    optimization work captures one profile per candidate change and diffs
    the reports (see docs/ARCHITECTURE.md's performance section and
    ``benchmarks/bench_engine_hotpath.py``).

    Args:
        fn: Zero-argument callable to profile (e.g. a closed-over
            ``spec.run()`` call).
        sort: ``pstats`` sort key (``"tottime"``, ``"cumulative"``, ...).
        limit: Number of rows to include in the report.
        dump_to: Optional path; when given, the raw ``pstats`` data is
            also written there (loadable with ``pstats.Stats(path)`` or
            snakeviz-style viewers).  The CLI's ``--profile PATH`` flag
            lands here.

    Returns:
        ``(result, report)`` — whatever ``fn`` returned, and the formatted
        profile table as a string.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    if dump_to is not None:
        profiler.dump_stats(os.fspath(dump_to))
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue()


class OnlineProfiler:
    """Accumulates per-class execution-time samples from commits."""

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {}

    def observe(self, class_name: str, execution_time: float) -> None:
        """Record one completed execution time for a class."""
        if execution_time <= 0:
            raise ConfigurationError(
                f"execution time must be positive, got {execution_time}"
            )
        self._samples.setdefault(class_name, []).append(execution_time)

    def sample_count(self, class_name: str) -> int:
        """Number of samples collected for a class."""
        return len(self._samples.get(class_name, ()))

    def distribution(self, class_name: str) -> EmpiricalExecution:
        """Fit the empirical distribution for a class.

        Raises:
            ConfigurationError: If no samples were collected for the class.
        """
        samples = self._samples.get(class_name)
        if not samples:
            raise ConfigurationError(
                f"no execution-time samples collected for class {class_name!r}"
            )
        return EmpiricalExecution(samples)


def profile_classes(
    classes: Sequence[TransactionClass],
    num_pages: int,
    step_duration: float,
    transactions: int = 200,
    seed: int = 7,
    resources: Optional[ResourceManager] = None,
) -> list[TransactionClass]:
    """Fit per-class execution distributions from a profiling run.

    Runs ``transactions`` of the given mix serially (no contention, so
    response time equals execution time) and returns copies of the classes
    carrying :class:`EmpiricalExecution` distributions, ready for SCC-DC
    or SCC-VW.

    Args:
        classes: The class mix to profile.
        num_pages: Database size for the profiling run.
        step_duration: Per-page service time (CPU + I/O).
        transactions: Profiling workload size.
        seed: Seed of the profiling workload.
        resources: Optional resource manager (defaults to infinite, with
            the requested step duration).
    """
    if transactions < len(classes):
        raise ConfigurationError(
            "profiling workload too small to cover every class"
        )
    generator = TransactionGenerator(
        classes=list(classes),
        num_pages=num_pages,
        step_duration=step_duration,
        streams=RandomStreams(seed),
        # Placeholder rate; arrivals are re-spaced below.
        arrivals=PoissonArrivals(1.0),
    )
    resources = resources or InfiniteResources(
        cpu_time=step_duration, io_time=0.0
    )
    system = RTDBSystem(
        protocol=SerialExecution(),
        num_pages=num_pages,
        resources=resources,
        metrics=MetricsCollector(),
        record_history=False,
    )
    # Space arrivals so transactions never overlap: response time then
    # *is* execution time, uncontaminated by queueing.
    spacing = max(cls.num_steps for cls in classes) * step_duration * 4.0
    from repro.txn.spec import TransactionSpec

    specs = []
    for i, drawn in enumerate(generator.generate(transactions)):
        specs.append(
            TransactionSpec.build(
                txn_id=drawn.txn_id,
                arrival=i * spacing,
                steps=list(drawn.steps),
                txn_class=drawn.txn_class,
                step_duration=step_duration,
            )
        )
    system.load_workload(specs)
    system.run()
    profiler = OnlineProfiler()
    for record in system.metrics.records:
        profiler.observe(record.class_name, record.response_time)
    profiled = []
    for cls in classes:
        if profiler.sample_count(cls.name) == 0:
            # Rare class never drawn: fall back to the analytic estimate.
            profiled.append(cls)
            continue
        profiled.append(cls.with_execution(profiler.distribution(cls.name)))
    return profiled
