"""Tests for sweep execution through the executor registry.

Covers worker-count edge cases (0/1/N), per-cell exception isolation,
deterministic reassembly, and serial/parallel result equality under
fixed seeds.  A worker count above one runs the distributed executor
(hosts claiming cells from a job board); its fault handling is pinned in
``tests/distributed/``.
"""

import pytest

from repro.errors import ConfigurationError, SweepExecutionError
from repro.experiments.cli import main
from repro.experiments.config import baseline_config
from repro.experiments.distributed import DistributedSweepExecutor
from repro.experiments.parallel import (
    CellError,
    ProgressReporter,
    SerialSweepExecutor,
    SweepCell,
    available_executors,
    make_executor,
    resolve_executor,
)
from repro.experiments.runner import build_cells, run_sweep
from repro.experiments.spec import ExperimentSpec
from tests.conftest import explode, register_family

SMALL = baseline_config(
    num_transactions=120,
    warmup_commits=10,
    replications=2,
    arrival_rates=(40.0, 80.0),
    check_serializability=False,
)
PROTOCOLS = {"SCC-2S": "scc-2s", "OCC-BC": "occ-bc"}


def _cells(n):
    return build_cells(["P"], [float(10 * (i + 1)) for i in range(n)], 1)


def _square(cell):
    return cell.arrival_rate**2


# ----------------------------------------------------------------------
# executor construction / registry
# ----------------------------------------------------------------------


def test_worker_count_zero_rejected():
    with pytest.raises(ConfigurationError):
        make_executor("distributed", workers=0)


def test_negative_workers_rejected():
    with pytest.raises(ConfigurationError):
        make_executor("distributed", workers=-3)


def test_registry_names():
    assert available_executors() == ("distributed", "serial")
    assert isinstance(make_executor("serial"), SerialSweepExecutor)
    assert isinstance(
        make_executor("distributed", workers=2), DistributedSweepExecutor
    )
    with pytest.raises(ConfigurationError):
        make_executor("threads")


def test_process_executor_name_is_refused(tmp_path, capsys):
    # The fork pool is gone with no alias: each way of naming it gets the
    # unknown-executor error listing both executors that remain.
    choices = ("'distributed'", "'serial'")
    with pytest.raises(ConfigurationError, match="unknown executor") as excinfo:
        make_executor("process", workers=2)
    assert all(name in str(excinfo.value) for name in choices)

    spec = tmp_path / "spec.json"
    ExperimentSpec.create(["scc-2s"], arrival_rates=[40.0]).save(spec)
    with pytest.raises(SystemExit):
        main(["run", str(spec), "--executor", "process", "--workers", "2"])
    flag_error = capsys.readouterr().err
    assert "invalid choice: 'process'" in flag_error
    assert all(name in flag_error for name in choices)

    ExperimentSpec.create(
        ["scc-2s"], arrival_rates=[40.0], executor="process", workers=2
    ).save(spec)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", str(spec), "--transactions", "40"])
    assert "unknown executor 'process'" in str(excinfo.value)
    assert all(name in str(excinfo.value) for name in choices)


def test_serial_executor_refuses_worker_count():
    # "--executor serial --workers 8" is a misconfiguration, not a request
    # to quietly run on one core.
    with pytest.raises(ConfigurationError):
        make_executor("serial", workers=8)
    assert isinstance(make_executor("serial", workers=1), SerialSweepExecutor)


def test_resolve_rejects_nonpositive_workers():
    # Without this, `--workers 0` / negative counts would silently fall
    # back to the serial executor instead of flagging the typo.
    with pytest.raises(ConfigurationError):
        resolve_executor(None, workers=0)
    with pytest.raises(ConfigurationError):
        resolve_executor("serial", workers=-2)


def test_resolve_executor_defaults():
    assert isinstance(resolve_executor(None), SerialSweepExecutor)
    # workers > 1 implies the job-board executor...
    resolved = resolve_executor(None, workers=3)
    assert isinstance(resolved, DistributedSweepExecutor)
    assert resolved.workers == 3
    # ...workers == 1 stays serial.
    assert isinstance(resolve_executor(None, workers=1), SerialSweepExecutor)
    # Instances pass through unchanged.
    executor = DistributedSweepExecutor(workers=2)
    assert resolve_executor(executor) is executor


@pytest.mark.parametrize(
    "kwargs",
    [
        {"executor": "threads"},
        {"workers": 0},
        {"executor": "serial", "workers": 2},
        {"workers": 2, "trace": "trace.jsonl"},
    ],
    ids=["unknown-name", "zero-workers", "serial-with-workers", "trace-with-workers"],
)
def test_cached_rerun_still_refuses_bad_executor_arguments(tmp_path, kwargs):
    # run_sweep builds its executor only when a cell misses the store;
    # a bad executor argument is refused even when none does.
    config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
    store = tmp_path / "runs.jsonl"
    run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store)
    if "trace" in kwargs:
        kwargs = {**kwargs, "trace": tmp_path / kwargs["trace"]}
    with pytest.raises(ConfigurationError):
        run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store, **kwargs)
    assert not (tmp_path / "trace.jsonl").exists()


# ----------------------------------------------------------------------
# cell execution semantics
# ----------------------------------------------------------------------


def test_empty_grid():
    assert make_executor("distributed", workers=2).run([], _square) == []
    assert SerialSweepExecutor().run([], _square) == []


def test_one_worker_degenerate_pool():
    outcomes = make_executor("distributed", workers=1).run(_cells(5), _square)
    assert [o.summary for o in outcomes] == [100.0, 400.0, 900.0, 1600.0, 2500.0]


def test_more_workers_than_cells():
    outcomes = make_executor("distributed", workers=16).run(_cells(3), _square)
    assert [o.summary for o in outcomes] == [100.0, 400.0, 900.0]


def test_deterministic_cell_ordering():
    # Hosts claim single cells, so completions interleave; reassembly
    # must still return outcomes in cell-index order.
    executor = make_executor("distributed", workers=4)
    outcomes = executor.run(_cells(12), _square)
    assert [o.cell.index for o in outcomes] == list(range(12))


def test_per_cell_exception_isolation():
    def flaky(cell):
        if cell.arrival_rate == 30.0:
            raise ValueError("boom at 30 tps")
        return cell.arrival_rate

    # run() completes every cell; only the crashed one carries an error.
    for executor in (SerialSweepExecutor(), make_executor("distributed", workers=2)):
        outcomes = executor.run(_cells(4), flaky)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        failed = outcomes[2]
        assert failed.summary is None
        assert failed.error.exc_type == "ValueError"
        assert "boom at 30 tps" in failed.error.message
        assert "ValueError" in failed.error.traceback


def test_progress_events_monotonic_with_eta():
    events = []
    SerialSweepExecutor().run(_cells(3), _square, on_progress=events.append)
    completed = [e for e in events if e.kind == "completed"]
    assert [e.completed for e in completed] == [1, 2, 3]
    assert all(e.total == 3 for e in events)
    assert all(e.eta is not None for e in completed)
    assert completed[-1].eta == pytest.approx(0.0)


def test_progress_reporter_formats_lines(capsys):
    import sys

    config = SMALL.scaled(num_transactions=40, warmup_commits=2,
                          replications=1, arrival_rates=[30.0, 60.0])
    for executor, workers in (("serial", None), (None, 2)):
        run_sweep(
            {"SCC-2S": "scc-2s"}, config, executor=executor, workers=workers,
            on_event=ProgressReporter(stream=sys.stderr),
        )
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2, executor
        assert "[1/2] completed" in lines[0], executor
        assert "[2/2] completed" in lines[1], executor
        assert all("SCC-2S rate=" in line and "eta=" in line
                   for line in lines), executor


# ----------------------------------------------------------------------
# run_sweep integration
# ----------------------------------------------------------------------


def test_parallel_sweep_equals_serial():
    serial = run_sweep(PROTOCOLS, SMALL, executor="serial")
    parallel = run_sweep(PROTOCOLS, SMALL, executor="distributed", workers=4)
    assert set(serial) == set(parallel)
    for name in serial:
        # RunSummary is a plain record: == compares every metric field,
        # so this asserts bit-identical summaries, not approximate ones.
        assert serial[name].replications == parallel[name].replications
        assert serial[name].arrival_rates == parallel[name].arrival_rates


def test_workers_kwarg_alone_selects_process_pool():
    # The multi-process path is the job board: workers=2 alone reaches it.
    via_workers = run_sweep(PROTOCOLS, SMALL, workers=2)
    serial = run_sweep(PROTOCOLS, SMALL)
    for name in PROTOCOLS:
        assert via_workers[name].replications == serial[name].replications


def test_sweep_failures_aggregate(monkeypatch):
    # The forked workers inherit the test-registered family.
    register_family(monkeypatch, "exploding", explode)
    protocols = {"SCC-2S": "scc-2s", "BAD": "exploding"}
    config = SMALL.scaled(num_transactions=60, warmup_commits=5,
                          replications=1, arrival_rates=[40.0])
    with pytest.raises(SweepExecutionError) as excinfo:
        run_sweep(protocols, config, workers=2)
    failures = excinfo.value.failures
    # The good protocol's cell ran to completion; only BAD's cell failed.
    assert [f.cell.protocol for f in failures] == ["BAD"]
    assert "RuntimeError" in str(excinfo.value)


def test_cell_completed_events_fire_in_parallel():
    # Worker-side starts are not observable: the job-board executor
    # reports only completions.
    events = []
    run_sweep(
        {"SCC-2S": "scc-2s"},
        SMALL.scaled(num_transactions=40, warmup_commits=2, replications=1,
                     arrival_rates=[30.0, 60.0]),
        workers=2,
        on_event=events.append,
    )
    progress = [e for e in events if e.kind in ("cell_started", "cell_completed")]
    assert {e.kind for e in progress} == {"cell_completed"}
    assert sorted(
        (e.payload["cell"]["protocol"], e.payload["cell"]["arrival_rate"])
        for e in progress
    ) == [("SCC-2S", 30.0), ("SCC-2S", 60.0)]


def test_cell_error_from_exception_captures_chain():
    try:
        raise KeyError("missing-protocol")
    except KeyError as exc:
        record = CellError.from_exception(exc)
    assert record.exc_type == "KeyError"
    assert "missing-protocol" in record.message
    assert "KeyError" in record.traceback


def test_build_cells_serial_order():
    cells = build_cells(["A", "B"], [10.0, 20.0], 2)
    assert len(cells) == 8
    assert [c.index for c in cells] == list(range(8))
    assert cells[0].protocol == "A" and cells[-1].protocol == "B"
    # protocol-major, then rate, then replication
    assert [(c.protocol, c.arrival_rate, c.replication) for c in cells[:4]] == [
        ("A", 10.0, 0), ("A", 10.0, 1), ("A", 20.0, 0), ("A", 20.0, 1),
    ]


def test_sweep_cell_describe():
    cell = SweepCell(index=0, protocol="SCC-2S", rate_index=1,
                     arrival_rate=70.0, replication=2)
    assert "SCC-2S" in cell.describe()
    assert "70" in cell.describe()
