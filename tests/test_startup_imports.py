"""Start-up guard: running a sweep loads neither scipy nor networkx.

scipy alone roughly triples the time before ``repro run`` / ``repro
serve`` is ready, so the run path must not import it.  The check needs a
fresh interpreter: the test process itself may already hold both
libraries through reference tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

CHILD = """
import json, sys

import repro
import repro.experiments.cli
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.values.distributions import NormalExecution

config = baseline_config(
    num_transactions=40, warmup_commits=0, replications=1,
    check_serializability=True,
)
results = run_sweep(["scc-2s"], config, arrival_rates=[40.0])
assert results["SCC-2S"].replications[0][0].committed > 0
dist = NormalExecution(1.0, 2.0)
assert 0.0 < dist.survival(1.0) < 1.0 and dist.mean() > 1.0
print(json.dumps(sorted({"scipy", "networkx"} & set(sys.modules))))
"""


def test_run_path_skips_scipy_and_networkx():
    # Let the child import the same checkout whatever the working directory.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
