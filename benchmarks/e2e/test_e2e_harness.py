"""Self-test of the end-to-end benchmark harness.

Runs all four workloads at smoke scale through ``run.py`` (the real
program, shrunk grids, a 2-second gateway loop) and checks that every
gated metric is printed with its unit and that the output checks pass.
Then it shows the checks catch a store whose summary was altered after
the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics each workload prints besides the gated ones.
PRINTED = {
    "paper-sweep": ("wall_s", "resume_s", "failed_frac", "host.ref_s"),
    "contended-diurnal": ("wall_s", "resume_s", "failed_frac", "host.ref_s"),
    "many-cells": ("wall_s", "resume_s", "failed_frac", "host.ref_s"),
    "gateway-mixed": (
        "failed_frac", "host.ref_s", "first_event_p50_s", "first_event_p90_s",
        "cached_done_p50_s", "cached_done_p90_s",
        "cold_done_p50_s", "cold_done_p80_s",
    ),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    work = tmp_path_factory.mktemp("e2e-work")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--out", str(out), "--work", str(work)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, out


def test_smoke_run_passes_and_prints_every_metric(smoke):
    proc, out = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    blocks = proc.stdout.split("\n== ")
    assert len(blocks) == len(harness.WORKLOADS)
    for workload, block in zip(harness.WORKLOADS, blocks):
        assert block.lstrip("= ").startswith(workload)
        assert "checks: ok" in block
        gated = [entry["name"] for entry in BENCHMARK["end_to_end"]]
        for name in gated + list(PRINTED[workload]):
            unit = run.UNITS[name]
            line = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s"
            assert re.search(line, block, re.M), f"{workload}: {name} [{unit}]"
        for name in gated:
            assert result["metrics"][f"{workload}:{name}"]["unit"] == run.UNITS[name]
    assert len(list(out.glob("*.json"))) == len(harness.WORKLOADS)


def test_gated_metric_units_match_benchmark_json():
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.UNITS[entry["name"]] == entry["unit"], entry["name"]


def test_altered_summary_is_caught(tmp_path):
    grid = harness.GRIDS["smoke"]["paper-sweep"]
    seed = harness.derive_seed(checks.DEFAULT_SEED, "paper-sweep")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(harness.make_spec(grid, seed)))
    store = tmp_path / "store.jsonl"
    workspace = harness.Workspace(tmp_path / "work")
    try:
        launch = workspace.launch(["run", str(spec), "--store", str(store), "--quiet"])
        launch.finish()
    finally:
        workspace.close()
    assert launch.exit_code == 0, launch.tail()
    check = (store, "paper-sweep", "smoke", [seed], [seed], checks.DEFAULT_SEED)
    assert checks.check_store(*check)[0] == []

    lines = store.read_text().splitlines()
    record = json.loads(lines[0])
    record["summary"]["missed_ratio"] = 100.0 - record["summary"]["missed_ratio"] / 2
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    store.write_text("\n".join(lines) + "\n")
    problems = checks.check_store(*check)[0]
    assert any("digest" in problem for problem in problems), problems
