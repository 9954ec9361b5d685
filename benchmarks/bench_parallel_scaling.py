"""Serial vs parallel sweep execution: determinism and scaling.

Two properties of the ``repro.experiments.parallel`` subsystem are gated
here:

1. **Determinism** — a ``workers=4`` sweep (hosts claiming cells from
   the job board) must produce summaries *bit-identical* to the serial
   path (workload streams depend only on
   ``(seed, replication)``, so cell placement cannot leak into results).
   This is asserted unconditionally, on every machine.
2. **Scaling** — fanning the grid out over 4 workers must cut
   wall-clock by at least 2x (tunable via ``REPRO_BENCH_MIN_SPEEDUP``;
   ``0`` disables the assert for noisy shared runners).

The benchmark skips on hosts with fewer cores than workers: there is
nothing to scale onto, and a speedup measured there is no number to
record.  Executor determinism is also gated by the tier-1 executor tests
and CI's distributed-smoke job, which run on every host.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.metrics.report import format_table

SCALING_WORKERS = 4
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _run(spec, config, workers):
    started = time.perf_counter()
    results = spec.run(config=config, workers=workers)
    return results, time.perf_counter() - started


def test_parallel_scaling_and_determinism(benchmark, bench_spec):
    cores = os.cpu_count() or 1
    if cores < SCALING_WORKERS:
        pytest.skip(
            f"{cores}-core host: scaling needs >= {SCALING_WORKERS} cores"
        )
    spec, config = bench_spec("fig13")
    serial_results, serial_s = _run(spec, config, 1)
    parallel_results, parallel_s = benchmark.pedantic(
        lambda: _run(spec, config, SCALING_WORKERS), rounds=1, iterations=1
    )

    # Determinism: every protocol, rate, and replication — exact equality.
    assert set(serial_results) == set(parallel_results)
    for name, serial_sweep in serial_results.items():
        parallel_sweep = parallel_results[name]
        assert serial_sweep.arrival_rates == parallel_sweep.arrival_rates
        # RunSummary equality covers every metric field.
        assert serial_sweep.replications == parallel_sweep.replications, name

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["workers"] = SCALING_WORKERS
    print()
    print(
        format_table(
            ["executor", "wall-clock (s)", "speedup"],
            [
                ("serial", serial_s, 1.0),
                (f"{SCALING_WORKERS} workers", parallel_s, speedup),
            ],
            title=f"Parallel sweep scaling ({cores}-core host)",
        )
    )
    if MIN_SPEEDUP > 0:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP:g}x speedup on a {cores}-core host, got "
            f"{speedup:.2f}x (serial {serial_s:.2f}s, parallel {parallel_s:.2f}s)"
        )
