"""Tests for record export (JSON/CSV) and store diffing."""

import csv
import io
import json

from repro._record import replace
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.results.export import (
    CSV_COLUMNS,
    diff_records,
    records_from_results,
    records_to_json,
    write_csv,
)
from repro.results.fingerprint import cell_fingerprint
from repro.results.record import RunRecord
from repro.results.store import RunStore

from tests.results.test_record import make_record, make_summary

SMALL = baseline_config(
    num_transactions=80,
    warmup_commits=8,
    replications=2,
    arrival_rates=(40.0, 90.0),
    check_serializability=False,
)


def test_records_from_results_cover_the_full_grid(tmp_path):
    from repro.protocols.registry import protocol_spec

    results = run_sweep({"SCC-2S": "scc-2s"}, SMALL)
    records = records_from_results(
        SMALL, results, {"SCC-2S": protocol_spec("scc-2s")}
    )
    assert len(records) == 4  # 1 protocol x 2 rates x 2 replications
    coords = {(r.protocol, r.arrival_rate, r.replication) for r in records}
    assert coords == {
        ("SCC-2S", 40.0, 0), ("SCC-2S", 40.0, 1),
        ("SCC-2S", 90.0, 0), ("SCC-2S", 90.0, 1),
    }


def test_records_from_results_fingerprints_match_the_store(tmp_path):
    # The export path and the store path must address cells identically.
    from repro.protocols.registry import protocol_spec

    path = tmp_path / "runs.jsonl"
    specs = {"SCC-2S": protocol_spec("scc-2s")}
    results = run_sweep({"SCC-2S": "scc-2s"}, SMALL, store=path)
    exported = {
        r.fingerprint
        for r in records_from_results(SMALL, results, protocol_specs=specs)
    }
    stored = {r.fingerprint for r in RunStore(path)}
    assert exported == stored
    for record in records_from_results(SMALL, results, protocol_specs=specs):
        assert record.fingerprint == cell_fingerprint(
            SMALL, specs[record.protocol], record.arrival_rate,
            record.replication,
        )


def test_records_to_json_round_trips():
    records = [make_record(), make_record(fingerprint="ee" * 16, scenario=None)]
    payloads = json.loads(records_to_json(records))
    rebuilt = [RunRecord.from_dict(p) for p in payloads]
    assert sorted(r.fingerprint for r in rebuilt) == sorted(
        r.fingerprint for r in records
    )


def test_write_csv_emits_header_and_flat_rows():
    buffer = io.StringIO()
    count = write_csv([make_record()], buffer)
    assert count == 1
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == list(CSV_COLUMNS)
    row = dict(zip(rows[0], rows[1]))
    assert row["protocol"] == "SCC-2S"
    assert float(row["arrival_rate"]) == 70.0
    assert json.loads(row["per_class_missed"]) == {"baseline": 2.7777777777777777}
    # Floats survive CSV exactly (shortest repr both ways).
    assert float(row["missed_ratio"]) == make_summary().missed_ratio


def test_diff_records_covers_every_summary_field():
    # Drift in a secondary measure (restarts) must be caught — the diff
    # gate has no metric blind spots.
    record_a = make_record()
    drifted = replace(record_a, summary=make_summary(restarts=999))
    report = diff_records([record_a], [drifted])
    ((_, _, deltas),) = report["changed"]
    assert deltas == {"restarts": (record_a.summary.restarts, 999)}
    per_class = replace(
        record_a, summary=make_summary(per_class_value={"baseline": 1.0})
    )
    report = diff_records([record_a], [per_class])
    assert len(report["changed"]) == 1


def test_diff_records_identical_sets():
    records = [make_record()]
    report = diff_records(records, list(records))
    assert report["identical"] == 1
    assert report["changed"] == []
    assert report["only_a"] == [] and report["only_b"] == []


def test_diff_records_flags_metric_drift_on_shared_cells():
    record_a = make_record()
    drifted = replace(
        record_a, summary=make_summary(missed_ratio=50.0)
    )
    only_a = make_record(fingerprint="11" * 16)
    only_b = make_record(fingerprint="22" * 16)
    report = diff_records([record_a, only_a], [drifted, only_b])
    assert report["identical"] == 0
    ((rec_a, rec_b, deltas),) = report["changed"]
    assert rec_a is record_a and rec_b is drifted
    assert deltas == {
        "missed_ratio": (record_a.summary.missed_ratio, 50.0)
    }
    assert report["only_a"] == [only_a]
    assert report["only_b"] == [only_b]


def test_write_csv_carries_protocol_spec_column():
    # The registry identity must survive the CSV path too: variants with
    # colliding display labels stay distinguishable without decoding
    # fingerprints.  Legacy (name-keyed) records leave the cell empty.
    spec = {"family": "scc-ks", "params": {"k": 3, "replacement": "lbfo"}}
    buffer = io.StringIO()
    write_csv(
        [make_record(protocol_spec=spec), make_record(fingerprint="ee" * 16)],
        buffer,
    )
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert "protocol_spec" in rows[0]
    first = dict(zip(rows[0], rows[1]))
    second = dict(zip(rows[0], rows[2]))
    assert json.loads(first["protocol_spec"]) == spec
    assert second["protocol_spec"] == ""
