"""Store-backed sweeps: resume semantics, failure paths, bit-identity."""

import pytest

from repro.errors import SweepExecutionError
from repro.experiments.config import baseline_config
from repro.experiments.parallel import CellError, CellOutcome
from repro.experiments.runner import assemble_results, build_cells, run_sweep
from repro.experiments.spec import Experiment
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.results import RunStore
from tests.conftest import computed_cells, explode, register_family

SMALL = baseline_config(
    num_transactions=80,
    warmup_commits=8,
    replications=2,
    arrival_rates=(40.0, 90.0),
    check_serializability=False,
)
PROTOCOLS = {"SCC-2S": "scc-2s", "OCC-BC": "occ-bc"}


def test_cold_store_run_matches_storeless_run(tmp_path):
    plain = run_sweep(PROTOCOLS, SMALL)
    stored = run_sweep(PROTOCOLS, SMALL, store=tmp_path / "runs.jsonl")
    for name in PROTOCOLS:
        assert stored[name].replications == plain[name].replications


def test_resume_runs_only_missing_cells_and_is_bit_identical(tmp_path):
    path = tmp_path / "runs.jsonl"
    cold = run_sweep(PROTOCOLS, SMALL)

    # Interrupted sweep: only the first arrival rate got done.
    run_sweep(PROTOCOLS, SMALL, arrival_rates=[40.0], store=path)
    assert len(RunStore(path)) == 4

    events = []
    resumed = run_sweep(PROTOCOLS, SMALL, store=path, on_event=events.append)
    # Only the 90.0-rate cells ran (2 protocols x 2 replications).
    assert computed_cells(events) == [
        ("OCC-BC", 90.0, 0), ("OCC-BC", 90.0, 1),
        ("SCC-2S", 90.0, 0), ("SCC-2S", 90.0, 1),
    ]
    for name in PROTOCOLS:
        assert resumed[name].replications == cold[name].replications
        assert resumed[name].arrival_rates == cold[name].arrival_rates


def test_fully_warm_store_runs_nothing(tmp_path):
    path = tmp_path / "runs.jsonl"
    protocols = {"SCC-2S": "scc-2s"}
    first = run_sweep(protocols, SMALL, store=path)
    events = []
    warm = run_sweep(protocols, SMALL, store=path, on_event=events.append)
    assert computed_cells(events) == []
    assert warm["SCC-2S"].replications == first["SCC-2S"].replications


def test_truncated_store_reruns_only_the_lost_cell(tmp_path):
    path = tmp_path / "runs.jsonl"
    run_sweep(PROTOCOLS, SMALL, store=path)
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.seek(0)
        fh.truncate()
        fh.write(data[:-30])  # simulate a kill mid-append
    recovered = RunStore(path)
    assert recovered.corrupt_lines == 1
    assert len(recovered) == 7
    cold = run_sweep(PROTOCOLS, SMALL)
    events = []
    resumed = run_sweep(
        PROTOCOLS, SMALL, store=recovered, on_event=events.append
    )
    assert len(computed_cells(events)) == 1  # just the torn cell
    for name in PROTOCOLS:
        assert resumed[name].replications == cold[name].replications


def test_store_accepts_instance_and_path_equally(tmp_path):
    path = tmp_path / "runs.jsonl"
    via_path = run_sweep({"SCC-2S": "scc-2s"}, SMALL, store=str(path))
    via_instance = run_sweep({"SCC-2S": "scc-2s"}, SMALL, store=RunStore(path))
    assert via_path["SCC-2S"].replications == via_instance["SCC-2S"].replications


def test_failed_cells_are_not_persisted_and_retry_on_rerun(
    tmp_path, monkeypatch
):
    path = tmp_path / "runs.jsonl"
    register_family(monkeypatch, "exploding", explode)
    protocols = {"SCC-2S": "scc-2s", "BAD": "exploding"}
    config = SMALL.scaled(replications=1, arrival_rates=[40.0])
    with pytest.raises(SweepExecutionError) as excinfo:
        run_sweep(protocols, config, store=path)
    assert [f.cell.protocol for f in excinfo.value.failures] == ["BAD"]
    # The good cell was persisted before the sweep raised; the bad one
    # was not, so a fixed rerun retries exactly it.
    store = RunStore(path)
    assert len(store) == 1
    assert store.records()[0].protocol == "SCC-2S"
    register_family(monkeypatch, "exploding", OCCBroadcastCommit)
    events = []
    fixed = run_sweep(protocols, config, store=path, on_event=events.append)
    assert computed_cells(events) == [("BAD", 40.0, 0)]
    assert set(fixed) == {"SCC-2S", "BAD"}


def test_store_keeps_finite_and_infinite_resource_cells_apart(tmp_path):
    # The server count is fingerprinted config data, so one store holds
    # a 2-server sweep and an infinite-resource sweep side by side and
    # serves each only its own cells.
    from repro._record import replace

    path = tmp_path / "runs.jsonl"
    finite = replace(SMALL, num_servers=2)
    infinite_cold = run_sweep(PROTOCOLS, SMALL)
    finite_cold = run_sweep(PROTOCOLS, finite, store=path)
    events = []
    infinite_run = run_sweep(PROTOCOLS, SMALL, store=path,
                             on_event=events.append)
    assert len(computed_cells(events)) == 8  # nothing served across models
    assert len(RunStore(path)) == 16
    events = []
    finite_warm = run_sweep(PROTOCOLS, finite, store=path,
                            on_event=events.append)
    assert computed_cells(events) == []
    for name in PROTOCOLS:
        assert infinite_run[name].replications == infinite_cold[name].replications
        assert finite_warm[name].replications == finite_cold[name].replications
        assert finite_cold[name].replications != infinite_cold[name].replications


def test_scenario_name_is_recorded_as_metadata(tmp_path):
    path = tmp_path / "runs.jsonl"
    (
        Experiment.scenario("flash-sale-hotspot")
        .protocols("scc-2s")
        .rates(60.0)
        .store(path)
        .run(
            num_transactions=80,
            warmup_commits=8,
            replications=1,
            check_serializability=False,
        )
    )
    records = RunStore(path).records()
    assert records and all(r.scenario == "flash-sale-hotspot" for r in records)


def test_store_round_trip_preserves_seed_and_coordinates(tmp_path):
    path = tmp_path / "runs.jsonl"
    run_sweep({"SCC-2S": "scc-2s"}, SMALL, store=path)
    for record in RunStore(path):
        assert record.seed == SMALL.seed
        assert record.protocol == "SCC-2S"
        assert record.arrival_rate in SMALL.arrival_rates
        assert record.replication in (0, 1)
        assert record.elapsed > 0


# ----------------------------------------------------------------------
# assemble_results failure aggregation
# ----------------------------------------------------------------------


def _outcome(cell, summary=None, error=None):
    return CellOutcome(cell=cell, summary=summary, error=error, elapsed=0.0)


def test_assemble_results_aggregates_every_failure():
    cells = build_cells(["P1", "P2"], [40.0], 2)
    error = CellError(exc_type="RuntimeError", message="boom", traceback="tb")
    outcomes = [
        _outcome(cells[0], error=error),
        _outcome(cells[1], error=error),
        _outcome(cells[2], error=error),
        _outcome(cells[3], error=error),
    ]
    with pytest.raises(SweepExecutionError) as excinfo:
        assemble_results(["P1", "P2"], [40.0], 2, outcomes)
    failures = excinfo.value.failures
    assert len(failures) == 4
    assert [f.cell.protocol for f in failures] == ["P1", "P1", "P2", "P2"]
    assert "4 sweep cell(s) failed" in str(excinfo.value)
    assert "RuntimeError" in str(excinfo.value)


def test_assemble_results_mixed_failures_report_only_the_failed_cells():
    cells = build_cells(["P1"], [40.0, 90.0], 1)
    error = CellError(exc_type="ValueError", message="bad", traceback="tb")
    from tests.results.test_record import make_summary

    outcomes = [
        _outcome(cells[0], summary=make_summary()),
        _outcome(cells[1], error=error),
    ]
    with pytest.raises(SweepExecutionError) as excinfo:
        assemble_results(["P1"], [40.0, 90.0], 1, outcomes)
    assert [f.cell.arrival_rate for f in excinfo.value.failures] == [90.0]
