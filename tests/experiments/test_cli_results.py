"""Tests for the CLI's store/format/results surface."""

import csv
import io
import json

import pytest

from repro.experiments.cli import main
from repro.results import RunStore, SQLiteRunStore, open_store
from repro.results.record import RunRecord

REDUCED = ["--transactions", "120", "--replications", "1", "--rates", "60,120"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_store_flag_persists_and_resumes(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    argv = ["fig13a", *REDUCED, "--store", store_path]
    code, cold_out = run_cli(argv, capsys)
    assert code == 0
    assert "0/8 cells reused, 8 computed" in cold_out
    assert len(RunStore(store_path)) == 8
    code, warm_out = run_cli(argv, capsys)
    assert code == 0
    assert "8/8 cells reused, 0 computed" in warm_out
    # Identical tables (modulo the timing-dependent status line).
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("[")]
    assert strip(cold_out) == strip(warm_out)


def test_format_json_emits_canonical_records(capsys):
    code, out = run_cli(
        ["fig13a", "--transactions", "120", "--replications", "1",
         "--rates", "60", "--format", "json"],
        capsys,
    )
    assert code == 0
    payloads = json.loads(out)
    assert len(payloads) == 4  # fig13's four protocols, one rate, one rep
    records = [RunRecord.from_dict(p) for p in payloads]
    assert {r.protocol for r in records} == {
        "SCC-2S", "OCC-BC", "WAIT-50", "2PL-PA"
    }
    assert all(r.arrival_rate == 60.0 for r in records)


def test_format_csv_emits_flat_rows(capsys):
    code, out = run_cli(
        ["fig13a", "--transactions", "120", "--replications", "1",
         "--rates", "60", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "fingerprint"
    assert len(rows) == 5  # header + four protocols


def test_results_list_renders_store(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    run_cli(["fig13a", *REDUCED, "--store", store_path], capsys)
    code, out = run_cli(["results", "list", "--store", store_path], capsys)
    assert code == 0
    assert "8 record(s)" in out
    assert "SCC-2S" in out and "2PL-PA" in out


def test_results_export_csv(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    run_cli(["fig13a", *REDUCED, "--store", store_path], capsys)
    code, out = run_cli(
        ["results", "export", "--store", store_path, "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 9  # header + 8 cells


def test_results_diff_clean_and_drifted(tmp_path, capsys):
    store_a = str(tmp_path / "a.jsonl")
    run_cli(["fig13a", *REDUCED, "--store", store_a], capsys)
    store_b = str(tmp_path / "b.jsonl")
    records = RunStore(store_a).records()
    with RunStore(store_b) as store:
        store.extend(records[:-1])  # drop one cell
    code, out = run_cli(
        ["results", "diff", "--store", store_a, "--against", store_b], capsys
    )
    assert code == 1  # coverage mismatch is a difference too
    assert "identical cells : 7" in out
    assert "only in A       : 1" in out
    # Equal stores diff clean.
    code, out = run_cli(
        ["results", "diff", "--store", store_a, "--against", store_a], capsys
    )
    assert code == 0
    assert "identical cells : 8" in out
    # Now corrupt one metric in B: diff must flag it and exit nonzero.
    import dataclasses

    drifted = dataclasses.replace(
        records[-1],
        summary=dataclasses.replace(records[-1].summary, missed_ratio=99.0),
    )
    with RunStore(store_b) as store:
        store.append(drifted)
    code, out = run_cli(
        ["results", "diff", "--store", store_a, "--against", store_b], capsys
    )
    assert code == 1
    assert "changed cells   : 1" in out
    assert "missed_ratio" in out


def test_format_json_with_store_serves_stored_records(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    argv = ["fig13a", "--transactions", "120", "--replications", "1",
            "--rates", "60", "--store", store_path, "--format", "json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    records = [RunRecord.from_dict(p) for p in json.loads(out)]
    # Stored records carry the cells' real wall-clock, not the 0.0 the
    # in-memory export path would fabricate.
    assert all(r.elapsed > 0 for r in records)
    # Warm re-run exports the identical stored records.
    code, warm_out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(warm_out) == json.loads(out)


def test_scenario_flag_stamps_stored_records(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    code, _ = run_cli(
        ["fig14a", "--scenario", "flash-sale-hotspot", "--transactions", "120",
         "--replications", "1", "--rates", "100", "--store", store_path],
        capsys,
    )
    assert code == 0
    records = RunStore(store_path).records()
    assert records
    assert all(r.scenario == "flash-sale-hotspot" for r in records)


def test_machine_formats_rejected_for_multi_document_commands():
    for command in ("all", "fig3", "scenarios"):
        with pytest.raises(SystemExit, match="not\\s+supported"):
            main([command, "--format", "json"])


def test_csv_output_has_unix_line_endings(capsys):
    code, out = run_cli(
        ["fig13a", "--transactions", "120", "--replications", "1",
         "--rates", "60", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "\r" not in out


def test_results_without_store_errors():
    with pytest.raises(SystemExit, match="--store"):
        main(["results", "list"])


def test_action_on_non_results_command_errors():
    with pytest.raises(SystemExit, match="only applies"):
        main(["fig13a", "list"])


# ----------------------------------------------------------------------
# store backends, merge, compact
# ----------------------------------------------------------------------


def test_store_backend_flag_forces_sqlite(tmp_path, capsys):
    store_path = str(tmp_path / "runs.data")  # no telling extension
    argv = ["fig13a", *REDUCED, "--store", store_path,
            "--store-backend", "sqlite"]
    code, _ = run_cli(argv, capsys)
    assert code == 0
    store = open_store(store_path)  # sniffed by content, not extension
    assert isinstance(store, SQLiteRunStore)
    assert len(store) == 8
    store.close()
    # Warm re-run resumes from the sqlite store.
    code, warm_out = run_cli(argv, capsys)
    assert code == 0
    assert "8/8 cells reused, 0 computed" in warm_out


def test_results_commands_work_on_sqlite_stores(tmp_path, capsys):
    store_path = str(tmp_path / "runs.sqlite")
    run_cli(["fig13a", *REDUCED, "--store", store_path], capsys)
    code, out = run_cli(["results", "list", "--store", store_path], capsys)
    assert code == 0
    assert "8 record(s)" in out
    code, out = run_cli(
        ["results", "diff", "--store", store_path, "--against", store_path],
        capsys,
    )
    assert code == 0
    assert "identical cells : 8" in out


def test_results_merge_combines_shards(tmp_path, capsys):
    shard_a = str(tmp_path / "a.jsonl")
    shard_b = str(tmp_path / "b.sqlite")
    reference = str(tmp_path / "all.jsonl")
    run_cli(["fig13a", *REDUCED, "--rates", "60", "--store", shard_a], capsys)
    run_cli(["fig13a", *REDUCED, "--rates", "120", "--store", shard_b], capsys)
    run_cli(["fig13a", *REDUCED, "--store", reference], capsys)
    merged = str(tmp_path / "merged.jsonl")
    code, out = run_cli(
        ["results", "merge", "--store", merged,
         "--from", f"{shard_a},{shard_b}"],
        capsys,
    )
    assert code == 0
    assert "merged 8 record(s) from 2 shard(s)" in out
    # The merged store carries exactly the full-grid records.
    code, out = run_cli(
        ["results", "diff", "--store", merged, "--against", reference], capsys
    )
    assert code == 0
    assert "identical cells : 8" in out
    # Merging again is a no-op.
    code, out = run_cli(
        ["results", "merge", "--store", merged,
         "--from", f"{shard_a},{shard_b}"],
        capsys,
    )
    assert code == 0
    assert "merged 0 record(s)" in out


def test_results_merge_requires_from():
    with pytest.raises(SystemExit, match="--from"):
        main(["results", "merge", "--store", "whatever.jsonl"])


def test_from_flag_only_applies_to_merge(tmp_path):
    store_path = str(tmp_path / "runs.jsonl")
    RunStore(store_path).close()
    with pytest.raises(SystemExit, match="--from"):
        main(["results", "list", "--store", store_path, "--from", "a.jsonl"])


def test_results_compact_reports_dropped_rows(tmp_path, capsys):
    store_path = str(tmp_path / "runs.jsonl")
    run_cli(["fig13a", *REDUCED, "--store", store_path], capsys)
    with RunStore(store_path) as store:
        store.append(store.records()[0])  # superseded generation
    code, out = run_cli(["results", "compact", "--store", store_path], capsys)
    assert code == 0
    assert "dropped 1 superseded/corrupt row(s)" in out
    assert "8 record(s) kept" in out
    code, out = run_cli(["results", "compact", "--store", store_path], capsys)
    assert code == 0
    assert "dropped 0" in out


def test_unreadable_store_is_a_clean_cli_error(tmp_path):
    bad = tmp_path / "runs.sqlite"
    bad.write_text("not a database")
    # Without the explicit backend the content sniffer treats the file
    # as JSONL (all lines corrupt); forcing sqlite must fail cleanly.
    with pytest.raises(SystemExit, match="SQLite"):
        main(
            ["results", "list", "--store", str(bad),
             "--store-backend", "sqlite"]
        )


# ----------------------------------------------------------------------
# read-only actions on a missing store
# ----------------------------------------------------------------------


def _fails_cleanly(argv) -> str:
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value)
    assert message.startswith("scc-experiments: error: ")
    assert "\n" not in message
    return message


@pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
@pytest.mark.parametrize("action", ["list", "export", "compact", "diff"])
def test_read_only_action_on_missing_store_fails(tmp_path, action, suffix):
    missing = tmp_path / f"missing{suffix}"
    argv = ["results", action, "--store", str(missing)]
    if action == "diff":
        argv += ["--against", str(tmp_path / f"other{suffix}")]
    assert str(missing) in _fails_cleanly(argv)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
def test_diff_against_missing_store_fails(tmp_path, capsys, suffix):
    # A mistyped --against must not read as an empty store: a CI drift
    # gate would pass on "identical cells: 0".
    store_path = str(tmp_path / "runs.jsonl")
    run_cli(["fig13a", *REDUCED, "--rates", "60", "--store", store_path], capsys)
    missing = tmp_path / f"typo{suffix}"
    message = _fails_cleanly(
        ["results", "diff", "--store", store_path, "--against", str(missing)]
    )
    assert str(missing) in message
    assert not missing.exists()


def test_merge_from_missing_shard_fails_and_creates_nothing(tmp_path, capsys):
    shard = str(tmp_path / "a.jsonl")
    run_cli(["fig13a", *REDUCED, "--rates", "60", "--store", shard], capsys)
    missing = tmp_path / "b.sqlite"
    merged = tmp_path / "merged.jsonl"
    message = _fails_cleanly(
        ["results", "merge", "--store", str(merged),
         "--from", f"{shard},{missing}"]
    )
    assert str(missing) in message
    assert not missing.exists()
    assert not merged.exists()
