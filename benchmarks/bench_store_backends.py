"""Store backends head to head: JSONL vs SQLite, cold and warm.

Same shape as ``bench_results_store.py`` but parametrized over the
backend registry, so the relative cost of the two persistence mediums is
tracked from commit to commit.  ``cold`` measures a sweep that computes
every cell and durably appends each record (per-line fsync for JSONL,
``synchronous=FULL`` transactions for SQLite); ``warm`` measures the
same grid served entirely from the store.  Every sweep and the gateway
append through one of these backends, from one process (a ``--workers``
sweep's parent; its hosts report to the job board), so a regression here
is a regression in sweep throughput.
"""

import os

import pytest

from repro.experiments.runner import run_sweep
from repro.results import STORE_BACKENDS, open_store

PROTOCOLS = {"SCC-2S": "scc-2s", "OCC-BC": "occ-bc", "WAIT-50": "wait-50"}


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_backend_cold_write_through(benchmark, bench_config, tmp_path, backend):
    path = os.path.join(tmp_path, f"cold-{backend}")

    def cold():
        for stale in (path, path + "-wal", path + "-shm"):
            if os.path.exists(stale):
                os.unlink(stale)
        return run_sweep(
            PROTOCOLS, bench_config, store=path, store_backend=backend
        )

    results = benchmark.pedantic(cold, rounds=1, iterations=1)
    cells = len(PROTOCOLS) * len(bench_config.arrival_rates)
    with open_store(path, backend=backend) as store:
        assert store.backend == backend
        assert len(store) == cells
    assert set(results) == set(PROTOCOLS)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["backend"] = backend


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_backend_warm_resume(benchmark, bench_config, tmp_path, backend):
    path = os.path.join(tmp_path, f"warm-{backend}")
    cold = run_sweep(PROTOCOLS, bench_config, store=path, store_backend=backend)

    def warm():
        return run_sweep(
            PROTOCOLS, bench_config, store=path, store_backend=backend
        )

    results = benchmark.pedantic(warm, rounds=3, iterations=1)
    # Warm results are bit-identical to the cold run that seeded the store.
    for name in PROTOCOLS:
        assert results[name].replications == cold[name].replications, name
    benchmark.extra_info["cells"] = len(PROTOCOLS) * len(bench_config.arrival_rates)
    benchmark.extra_info["backend"] = backend
