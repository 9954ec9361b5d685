"""Tests for the sweep runner (variance reduction, CI plumbing)."""

import pytest

from repro.core.scc_2s import SCC2S
from repro.errors import ConfigurationError
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_once, run_sweep
from repro.experiments.spec import Experiment
from repro.protocols.occ_bc import OCCBroadcastCommit


SMALL = baseline_config(
    num_transactions=120,
    warmup_commits=10,
    replications=2,
    arrival_rates=(40.0, 80.0),
)


def test_run_once_returns_summary():
    summary = run_once(SCC2S, SMALL, arrival_rate=60.0)
    assert summary.committed == 110  # 120 minus warmup
    assert 0.0 <= summary.missed_ratio <= 100.0


def test_same_replication_same_results():
    a = run_once(SCC2S, SMALL, arrival_rate=60.0, replication=0)
    b = run_once(SCC2S, SMALL, arrival_rate=60.0, replication=0)
    assert a.missed_ratio == b.missed_ratio
    assert a.system_value == b.system_value


def test_different_replications_differ():
    a = run_once(OCCBroadcastCommit, SMALL, arrival_rate=60.0, replication=0)
    b = run_once(OCCBroadcastCommit, SMALL, arrival_rate=60.0, replication=1)
    # Same config, independent seeds: response profiles should differ.
    assert a.avg_response_time != b.avg_response_time


def test_sweep_shapes_and_metrics():
    results = run_sweep(
        {"SCC-2S": "scc-2s", "OCC-BC": "occ-bc"}, SMALL
    )
    assert set(results) == {"SCC-2S", "OCC-BC"}
    sweep = results["SCC-2S"]
    assert sweep.arrival_rates == (40.0, 80.0)
    assert len(sweep.replications) == 2
    assert all(len(reps) == 2 for reps in sweep.replications)
    assert len(sweep.missed_ratio()) == 2
    cis = sweep.confidence(lambda s: s.missed_ratio)
    assert all(ci.n == 2 for ci in cis)


def test_progress_callback_invoked():
    events = []
    run_sweep(
        {"Serial": "serial"},
        SMALL.scaled(num_transactions=40, warmup_commits=2, replications=1,
                     arrival_rates=[30.0]),
        on_event=events.append,
    )
    # The serial executor announces each cell before running it.
    progress = [
        (e.kind, e.payload["cell"]["protocol"], e.payload["cell"]["arrival_rate"])
        for e in events
        if e.kind in ("cell_started", "cell_completed")
    ]
    assert progress == [
        ("cell_started", "Serial", 30.0),
        ("cell_completed", "Serial", 30.0),
    ]


def test_protocols_see_identical_workload_per_cell():
    # Variance reduction: the workload stream depends only on (seed,
    # replication), not on the protocol -- verified indirectly by running
    # a conflict-free-ish protocol pair and comparing commit counts.
    a = run_once(SCC2S, SMALL, arrival_rate=40.0, replication=0)
    b = run_once(OCCBroadcastCommit, SMALL, arrival_rate=40.0, replication=0)
    assert a.committed == b.committed


def test_callable_roster_entries_rejected_before_any_cell(tmp_path):
    # A class, a lambda or any other callable has no store identity.
    path = tmp_path / "runs.jsonl"
    for entry in (SCC2S, lambda: OCCBroadcastCommit()):
        events = []
        for sweep in (
            lambda: run_sweep({"P": entry}, SMALL, store=path,
                              on_event=events.append),
            lambda: Experiment.scenario("paper-baseline").protocols(entry)
            .store(path).run(on_event=events.append),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                sweep()
            assert "'scc-ks?k=3'" in str(excinfo.value)
            assert "register_protocol" in str(excinfo.value)
        assert events == []
    assert not path.exists()


def test_one_grid_never_holds_two_cells_with_one_fingerprint(tmp_path):
    path = tmp_path / "runs.jsonl"
    with pytest.raises(ConfigurationError, match="'A' and 'B'"):
        run_sweep({"A": "scc-2s", "B": "scc-2s"}, SMALL, store=path)
    with pytest.raises(ConfigurationError, match="repeat"):
        run_sweep({"A": "scc-2s"}, SMALL, arrival_rates=[60, 60.0], store=path)
    assert not path.exists()
