"""Tests for the experiment CLI."""

import pytest

from repro.experiments.cli import main
from tests.conftest import SPECS_DIR

FIG13 = str(SPECS_DIR / "fig13.json")


def test_fig3_prints_table(capsys):
    assert main(["fig3", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "SCC-OB" in out
    assert "SCC-CB" in out
    # n=3 row: 5 shadows under OB, 3 under CB.
    assert any("3" in line and "5" in line for line in out.splitlines())


def test_fig13a_reduced_scale(capsys):
    code = main(
        [
            "run", FIG13,
            "--transactions", "120",
            "--replications", "1",
            "--rates", "60,120",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Missed Ratio" in out
    assert "SCC-2S" in out
    assert "2PL-PA" in out
    assert "60" in out and "120" in out


def test_fig14a_reduced_scale(capsys):
    code = main(
        [
            "run", str(SPECS_DIR / "fig14a-fig15.json"),
            "--transactions", "120",
            "--replications", "1",
            "--rates", "80",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "System Value" in out
    assert "SCC-VW" in out


def test_fig13a_parallel_executor(capsys):
    code = main(
        [
            "run", FIG13,
            "--transactions", "120",
            "--replications", "1",
            "--rates", "60",
            "--executor", "distributed",
            "--workers", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Missed Ratio" in out
    assert "SCC-2S" in out


def test_executor_and_workers_agree_with_serial(capsys):
    argv = ["run", FIG13, "--transactions", "120", "--replications", "1",
            "--rates", "60,120"]
    assert main(argv) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out
    # Identical summaries => identical printed tables (modulo the trailing
    # wall-clock line, which is timing-dependent).
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("[")]
    assert strip(serial_out) == strip(parallel_out)


def test_scenarios_command_lists_registry(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in (
        "paper-baseline",
        "bursty-telecom",
        "flash-sale-hotspot",
        "diurnal-oltp",
        "trace-replay",
    ):
        assert name in out


def test_unknown_scenario_rejected(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(
        '{"schema": 1, "protocols": ["scc-2s"], "scenario": "does-not-exist"}'
    )
    with pytest.raises(SystemExit, match="unknown scenario"):
        main(["run", str(path)])


def test_invalid_workers_rejected():
    with pytest.raises(SystemExit):
        main(["run", FIG13, "--workers", "two"])


def test_invalid_rates_rejected():
    with pytest.raises(SystemExit):
        main(["run", FIG13, "--rates", "ten,twenty"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_figure_commands_are_spec_files(capsys):
    # The figures are spec files run by `run`: the figure commands, the
    # bare default and the --scenario flag are gone.
    for argv in (["fig13a"], ["fig15b"], ["all"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([])
    assert "required: command" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", FIG13, "--scenario", "paper-baseline"])
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the declarative experiment commands (run / specs)
# ----------------------------------------------------------------------


def _write_smoke_spec(tmp_path, **overrides):
    from repro.experiments.spec import ExperimentSpec

    fields = dict(
        arrival_rates=(60.0, 120.0),
        replications=1,
        num_transactions=120,
        warmup_commits=12,
    )
    fields.update(overrides)
    spec = ExperimentSpec.create(["scc-2s", "occ-bc"], **fields)
    path = tmp_path / "experiment.json"
    spec.save(path)
    return path, spec


def test_specs_lists_protocol_registry(capsys):
    assert main(["specs"]) == 0
    out = capsys.readouterr().out
    for family in ("scc-2s", "scc-ks", "scc-vw", "occ-bc", "wait-50", "serial"):
        assert family in out
    assert "k=2" in out  # parameters and defaults are shown
    assert "replacement=lbfo" in out


def test_run_executes_a_spec_file(capsys, tmp_path):
    path, _ = _write_smoke_spec(tmp_path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Missed Ratio" in out
    assert "System Value" in out
    assert "SCC-2S" in out and "OCC-BC" in out


def test_run_spec_bit_identical_to_direct_run_sweep(capsys, tmp_path):
    # The acceptance criterion: a JSON spec run via the CLI produces
    # results bit-identical to the same grid run cell by cell with
    # hand-built protocol classes.
    import json

    from repro.core.scc_2s import SCC2S
    from repro.experiments.config import baseline_config
    from repro.experiments.runner import run_once
    from repro.protocols.occ_bc import OCCBroadcastCommit

    path, _ = _write_smoke_spec(tmp_path)
    assert main(["run", str(path), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    config = baseline_config(
        num_transactions=120, warmup_commits=12, replications=1,
        arrival_rates=(60.0, 120.0),
    )
    hand_built = {"SCC-2S": SCC2S, "OCC-BC": OCCBroadcastCommit}
    assert len(records) == 4
    assert {r["protocol"] for r in records} == set(hand_built)
    for record in records:
        summary = run_once(
            hand_built[record["protocol"]], config,
            record["arrival_rate"], record["replication"],
        )
        assert record["summary"] == summary.to_dict()


def test_repeated_cells_are_one_error_line(tmp_path):
    # A grid that would compute one fingerprint twice is refused before
    # any cell runs, as a plain error line rather than a traceback.
    path, _ = _write_smoke_spec(tmp_path, arrival_rates=(60.0, 60.0))
    for argv in (
        ["run", str(path)],
        ["run", FIG13, "--transactions", "60", "--rates", "40,40"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("scc-experiments: error:"), argv
        assert "repeat" in message and "\n" not in message, argv


@pytest.mark.parametrize(
    "field", ['"arrival_rates": [60.0, -5.0]', '"arrival_rates": [1e309]',
              '"seed": -3']
)
def test_axes_that_cannot_run_are_one_error_line(tmp_path, field):
    # A rate that is not positive and finite, or a negative seed, is
    # refused when the config is built, before any cell runs.
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema": 1, "protocols": ["scc-2s"], "num_transactions": 40, '
        '"warmup_commits": 4, %s}' % field
    )
    good, _ = _write_smoke_spec(tmp_path)
    for argv in (
        ["run", str(bad)],
        ["run", str(good), "--rates", "40,-5"],
        ["run", FIG13, "--transactions", "60", "--rates", "40,0"],
        ["run", FIG13, "--transactions", "60", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("scc-experiments: error:"), argv
        assert "\n" not in message, argv


def test_negative_warmup_is_one_error_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema": 1, "protocols": ["scc-2s"], "num_transactions": 40, '
        '"warmup_commits": -5}'
    )
    for argv in (["run", str(bad)], ["run", str(bad), "--transactions", "60"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("scc-experiments: error:"), argv
        assert "warmup_commits" in message and "\n" not in message, argv


def test_run_with_store_reuses_cells(capsys, tmp_path):
    path, _ = _write_smoke_spec(
        tmp_path, store=str(tmp_path / "runs.jsonl")
    )
    assert main(["run", str(path)]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(path)]) == 0
    second = capsys.readouterr().out
    assert (tmp_path / "runs.jsonl").exists()
    # Bit-identical tables whether cells were computed or served from
    # the store (the wall-clock status line differs, so strip it).
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("[spec")
    ]
    assert strip(first) == strip(second)


def test_run_flag_overrides_spec(capsys, tmp_path):
    path, _ = _write_smoke_spec(tmp_path)
    assert main(["run", str(path), "--rates", "80", "--transactions", "60"]) == 0
    out = capsys.readouterr().out
    assert "60 txns" in out
    assert "80.000" in out
    assert "120.000" not in out


def test_run_without_spec_path_rejected():
    with pytest.raises(SystemExit, match="needs a spec file"):
        main(["run"])


def test_run_with_missing_file_rejected(tmp_path):
    with pytest.raises(SystemExit, match="cannot read"):
        main(["run", str(tmp_path / "absent.json")])


def test_action_only_for_results_and_run():
    with pytest.raises(SystemExit, match="only applies"):
        main(["fig3", "list"])


def test_unknown_results_action_rejected():
    with pytest.raises(SystemExit, match="unknown results action"):
        main(["results", "explode", "--store", "x.jsonl"])
