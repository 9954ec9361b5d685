"""Tests for the CLI's observability surface: trace, profile, logging."""

import pytest

from repro.experiments.cli import main
from tests.conftest import SPECS_DIR

FIG13 = str(SPECS_DIR / "fig13.json")


def write_spec(tmp_path, **overrides):
    from repro.experiments.spec import ExperimentSpec

    fields = dict(
        arrival_rates=(60.0,),
        replications=1,
        num_transactions=80,
        warmup_commits=8,
    )
    fields.update(overrides)
    spec = ExperimentSpec.create(["scc-2s"], **fields)
    path = tmp_path / "experiment.json"
    spec.save(path)
    return path


def traced_run(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    trace_path = tmp_path / "events.jsonl"
    assert main(["run", str(spec_path), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    return trace_path


def test_run_trace_flag_writes_a_valid_trace(tmp_path, capsys):
    from repro.telemetry.events import is_marker, iter_trace, read_trace

    trace_path = traced_run(tmp_path, capsys)
    assert trace_path.exists()
    payloads = list(iter_trace(trace_path))
    assert any(is_marker(p) for p in payloads)
    events = list(read_trace(trace_path))  # validates every event line
    assert {"txn_start", "commit"} <= {e.kind for e in events}


def test_trace_summarize_reports_kind_counts(tmp_path, capsys):
    trace_path = traced_run(tmp_path, capsys)
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "txn_start" in out
    assert "commit" in out
    assert "1 cell(s)" in out


def test_trace_shorthand_defaults_to_summarize(tmp_path, capsys):
    trace_path = traced_run(tmp_path, capsys)
    assert main(["trace", str(trace_path)]) == 0
    assert "event kind" in capsys.readouterr().out


def test_trace_timeline_renders_lanes(tmp_path, capsys):
    trace_path = traced_run(tmp_path, capsys)
    assert main(["trace", "timeline", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "lane" in out
    assert "shadow#0" in out
    assert "C" in out  # at least one commit marker


def test_trace_command_argument_errors(tmp_path):
    with pytest.raises(SystemExit, match="needs a trace file"):
        main(["trace"])
    with pytest.raises(SystemExit, match="unknown trace action"):
        main(["trace", "explode", "some.jsonl"])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["trace", "summarize", str(tmp_path / "absent.jsonl")])


def test_trace_and_profile_flags_restricted_to_run(tmp_path):
    with pytest.raises(SystemExit, match="--trace only applies"):
        main(["fig3", "--trace", str(tmp_path / "t.jsonl")])
    with pytest.raises(SystemExit, match="--profile only applies"):
        main(["fig3", "--profile", str(tmp_path / "p.pstats")])


def test_path_positional_restricted_to_trace():
    with pytest.raises(SystemExit, match="only applies to the\\s+trace"):
        main(["results", "list", "extra-arg", "--store", "x.jsonl"])


def test_run_profile_flag_dumps_pstats(tmp_path, capsys):
    import pstats

    spec_path = write_spec(tmp_path)
    profile_path = tmp_path / "run.pstats"
    assert main(["run", str(spec_path), "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    stats = pstats.Stats(str(profile_path))
    assert stats.total_calls > 0


def test_log_level_debug_shows_progress_and_quiet_silences(tmp_path, capsys):
    args = ["run", FIG13, "--transactions", "80", "--replications", "1",
            "--rates", "60"]
    assert main(args + ["--log-level", "info"]) == 0
    err = capsys.readouterr().err
    assert "running" in err  # per-cell progress notes flow via the logger
    assert main(args + ["--quiet"]) == 0
    captured = capsys.readouterr()
    assert "running" not in captured.err
    assert "Missed Ratio" in captured.out  # stdout output is untouched


def test_machine_format_status_goes_through_the_logger(capsys):
    args = ["run", FIG13, "--transactions", "80", "--replications", "1",
            "--rates", "60", "--format", "json"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "txns x" in captured.err
    assert "txns x" not in captured.out
    assert main(args + ["--quiet"]) == 0
    assert "txns x" not in capsys.readouterr().err


def test_spec_log_level_applies_when_no_flag_given(tmp_path, capsys):
    spec_path = write_spec(tmp_path, telemetry={"log_level": "error"})
    assert main(["run", str(spec_path)]) == 0
    err = capsys.readouterr().err
    assert "running" not in err
