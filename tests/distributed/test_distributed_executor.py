"""Tests for the distributed sweep executor under fault-free conditions.

Fault injection (worker kills, dropped leases, corrupted shards) lives
in ``tests/distributed/test_fault_injection.py``; here we pin the happy
path: registry wiring, constructor validation, bit-identical reassembly
vs the serial executor, the kept-workdir contract, store persistence +
resume, and the worker lifecycle events on the telemetry bus.
"""

import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import baseline_config
from repro.experiments.distributed import DistributedSweepExecutor
from repro.experiments.parallel import available_executors, make_executor
from repro.experiments.runner import build_cells, run_sweep
from repro.results import open_store

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="distributed executor tests need the fork start method",
)

SMALL = baseline_config(
    num_transactions=80,
    warmup_commits=8,
    replications=2,
    arrival_rates=(40.0, 90.0),
    check_serializability=False,
)
PROTOCOLS = ["scc-2s", "occ-bc"]

# Tight timings so lease machinery is exercised without slowing the test.
FAST = dict(lease_seconds=5.0, poll_seconds=0.01)


# ----------------------------------------------------------------------
# construction / registry
# ----------------------------------------------------------------------


def test_distributed_is_registered():
    assert available_executors() == ("distributed", "serial")
    executor = make_executor("distributed", workers=2)
    assert isinstance(executor, DistributedSweepExecutor)
    assert executor.workers == 2


def test_worker_count_validation():
    with pytest.raises(ConfigurationError):
        DistributedSweepExecutor(workers=0)
    with pytest.raises(ConfigurationError):
        DistributedSweepExecutor(workers=-2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lease_seconds=0.0),
        dict(lease_seconds=-1.0),
        dict(max_attempts=0),
        dict(poll_seconds=0.0),
    ],
)
def test_timing_knob_validation(kwargs):
    with pytest.raises(ConfigurationError):
        DistributedSweepExecutor(workers=1, **kwargs)


def test_empty_cell_list_is_a_noop():
    executor = DistributedSweepExecutor(workers=2)
    assert executor.run([], lambda cell: None) == []


# ----------------------------------------------------------------------
# bit-identical reassembly
# ----------------------------------------------------------------------


@needs_fork
def test_distributed_matches_serial_bit_for_bit():
    serial = run_sweep(PROTOCOLS, SMALL, executor="serial")
    executor = DistributedSweepExecutor(workers=2, **FAST)
    distributed = run_sweep(PROTOCOLS, SMALL, executor=executor)
    assert serial.keys() == distributed.keys()
    for name in serial:
        # RunSummary is a plain dataclass: == is field-exact, no tolerance.
        assert serial[name].replications == distributed[name].replications


@needs_fork
def test_outcomes_come_back_in_cell_order():
    cells = build_cells(["P", "Q"], [10.0, 20.0], 2)
    executor = DistributedSweepExecutor(workers=3, **FAST)
    outcomes = executor.run(cells, lambda cell: cell.arrival_rate * 100)
    assert [outcome.cell.index for outcome in outcomes] == [c.index for c in cells]
    assert all(outcome.ok for outcome in outcomes)


@needs_fork
def test_on_outcome_fires_once_per_cell():
    cells = build_cells(["P"], [10.0, 20.0, 30.0], 1)
    seen = []
    executor = DistributedSweepExecutor(workers=2, **FAST)
    executor.run(
        cells,
        lambda cell: cell.arrival_rate,
        on_outcome=lambda outcome: seen.append(outcome.cell.index),
    )
    assert sorted(seen) == [cell.index for cell in cells]


@needs_fork
def test_more_workers_than_cells_is_fine():
    cells = build_cells(["P"], [10.0], 1)
    executor = DistributedSweepExecutor(workers=8, **FAST)
    outcomes = executor.run(cells, lambda cell: 42)
    assert len(outcomes) == 1 and outcomes[0].ok


# ----------------------------------------------------------------------
# a caller-supplied workdir
# ----------------------------------------------------------------------


@needs_fork
def test_kept_workdir_is_refused_for_a_second_sweep(tmp_path):
    # An empty workdir is fine, and the first sweep leaves its board and
    # shards there for post-mortems. A second sweep on them would be
    # answered by the first one's outcomes (cells and shard lines are
    # matched by index), so it is refused before any host is forked.
    workdir = tmp_path / "work"
    workdir.mkdir()
    first = DistributedSweepExecutor(workers=1, workdir=workdir, **FAST)
    outcomes = first.run(build_cells(["P"], [10.0, 20.0], 1),
                         lambda cell: cell.arrival_rate * 2)
    assert [outcome.summary for outcome in outcomes] == [20.0, 40.0]
    assert (workdir / "board.sqlite").exists()
    kept = sorted(path.name for path in workdir.iterdir())

    second = DistributedSweepExecutor(workers=1, workdir=workdir, **FAST)
    with pytest.raises(ConfigurationError, match="not empty") as excinfo:
        second.run(build_cells(["Q"], [30.0, 40.0], 1),
                   lambda cell: cell.arrival_rate * 3)
    assert str(workdir) in str(excinfo.value)
    assert sorted(path.name for path in workdir.iterdir()) == kept
    # A fresh directory serves the same executor settings correctly.
    second.workdir = str(tmp_path / "fresh")
    outcomes = second.run(build_cells(["Q"], [30.0, 40.0], 1),
                          lambda cell: cell.arrival_rate * 3)
    assert [outcome.summary for outcome in outcomes] == [90.0, 120.0]


# ----------------------------------------------------------------------
# store persistence and resume
# ----------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_store_backed_run_persists_and_resumes(tmp_path, backend):
    path = tmp_path / "runs"
    first = run_sweep(
        PROTOCOLS,
        SMALL,
        executor=DistributedSweepExecutor(workers=2, **FAST),
        store=path,
        store_backend=backend,
    )
    store = open_store(path, backend=backend)
    assert store.backend == backend
    assert len(store) == len(build_cells(PROTOCOLS, SMALL.arrival_rates, 2))
    store.close()
    # Second run: every cell is already in the store, so the resume
    # never has to spawn a host — and returns identical results.
    resumed = run_sweep(
        PROTOCOLS,
        SMALL,
        executor=DistributedSweepExecutor(workers=2, **FAST),
        store=path,
        store_backend=backend,
    )
    for name in first:
        assert first[name].replications == resumed[name].replications


# ----------------------------------------------------------------------
# lifecycle events on the telemetry bus
# ----------------------------------------------------------------------


@needs_fork
def test_worker_lifecycle_events_reach_the_bus():
    events = []
    run_sweep(
        ["scc-2s"],
        SMALL,
        executor=DistributedSweepExecutor(workers=2, **FAST),
        on_event=events.append,
    )
    kinds = [event.kind for event in events]
    assert kinds.count("worker_started") == 2
    assert kinds.count("worker_stopped") == 2
    assert "worker_lost" not in kinds
    started = [e for e in events if e.kind == "worker_started"]
    assert {e.payload["worker"] for e in started} == {"host-0", "host-1"}
    # The sweep events proper still flow alongside the lifecycle ones.
    cells = build_cells(["SCC-2S"], SMALL.arrival_rates, 2)
    assert kinds.count("cell_outcome") == len(cells)
