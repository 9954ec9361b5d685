"""Start-up guard: ``run`` and ``serve`` load only what they use.

scipy alone roughly triples the time before ``repro run`` / ``repro
serve`` is ready, so the run path must not import it; nor networkx.
Beyond those, a serial sweep into a JSONL store must not load the
gateway, the distributed executor, the profiler, the timeline renderer
or the SQLite backend, and the gateway must not load the profiling
code or an event loop (``asyncio``); a ``--workers`` rerun served wholly
from its store must load neither the job-board executor nor
``multiprocessing``.  Package roots resolve their
names on first access (``repro._lazy``), so each of these stays out
unless a command reaches for it.  The checks need a fresh interpreter:
the test process itself holds all of these through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

RUN_CHILD = """
import json, sys, tempfile
from pathlib import Path

import repro
import repro.experiments.cli
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.values.distributions import NormalExecution

config = baseline_config(
    num_transactions=40, warmup_commits=0, replications=1,
    check_serializability=True,
)
with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "runs.jsonl"
    results = run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store)
    assert results["SCC-2S"].replications[0][0].committed > 0
    assert store.stat().st_size > 0
dist = NormalExecution(1.0, 2.0)
assert 0.0 < dist.survival(1.0) < 1.0 and dist.mean() > 1.0
print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""

#: A ``--workers 2`` rerun against a store that already holds its grid.
CACHED_PARALLEL_CHILD = """
import json, sys

from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep

config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
results = run_sweep(
    ["scc-2s"], config, arrival_rates=[40.0], store=sys.argv[1], workers=2
)
assert results["SCC-2S"].replications[0][0].committed > 0
print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))
"""

SERVE_CHILD = """
import json, sys

import repro.gateway.app
import repro.gateway.server

print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""

#: Loaded neither by a serial run into a JSONL store nor by the gateway,
#: which serves on threads, not an event loop.
SKIPPED_BY_BOTH = [
    "scipy",
    "networkx",
    "repro.experiments.profiling",
    "repro.analysis.timeline",
    "repro.core.shadow_counts",
    "http.client",
    "cProfile",
    "pstats",
    "asyncio",
    "ssl",
    "concurrent.futures",
]

#: Loaded by ``serve``, the distributed executor or the SQLite backend,
#: never by a serial run into a JSONL store.
SKIPPED_BY_RUN = [
    "repro.gateway",
    "repro.experiments.distributed",
    "repro.results.sqlite_store",
    "sqlite3",
    "multiprocessing",
]


def _loaded(child: str, modules: list, args: tuple = ()) -> list:
    """The ``modules`` a fresh interpreter running ``child`` has loaded.

    ``args`` come first on the child's command line, then ``modules``.
    """
    # Let the child import the same checkout whatever the working directory.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, *args, *modules],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_run_path_skips_scipy_and_networkx():
    # Not only scipy and networkx: nothing in either list.
    assert _loaded(RUN_CHILD, SKIPPED_BY_BOTH + SKIPPED_BY_RUN) == []


def test_cached_parallel_rerun_skips_multiprocessing(tmp_path):
    # Every cell is in the store, so no host is forked: the job-board
    # executor is never built, and neither it nor the process machinery
    # is loaded even though --workers 2 selects it.
    from repro.experiments.config import baseline_config
    from repro.experiments.runner import run_sweep

    store = tmp_path / "runs.jsonl"
    config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
    run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store)
    modules = [
        "repro.experiments.distributed", "multiprocessing", "concurrent.futures",
    ]
    assert _loaded(CACHED_PARALLEL_CHILD, modules, (str(store),)) == []


def test_serve_path_loads_no_event_loop_profiling_or_client():
    assert _loaded(SERVE_CHILD, SKIPPED_BY_BOTH) == []
