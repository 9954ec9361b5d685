"""Start-up guard: ``run`` and ``serve`` load only what they use.

scipy alone roughly triples the time before ``repro run`` / ``repro
serve`` is ready, so the run path must not import it; nor networkx.
Beyond those, a serial sweep into a JSONL store must not load the
gateway, the distributed executor, the profiler, the timeline renderer
or the SQLite backend, and the gateway must not load the profiling
code or an event loop (``asyncio``); a ``--workers`` rerun served wholly
from its store must load neither the job-board executor nor
``multiprocessing``, and a cold ``--workers`` sweep, whose executor
forks and reaps its hosts itself, never loads ``multiprocessing``
either.  numpy and the simulation layer load only in a process that
runs a cell, when it runs its first one: not in the ``results``/
``specs`` commands, a rerun served from its store, the parent of a
``--workers`` sweep (its hosts run the cells), or a gateway that has
computed nothing.  The engine is the bottom layer: importing
it loads no workload, protocol or system module.  Package roots resolve
their names on first access (``repro._lazy``), so each of these stays
out unless a command reaches for it.  The checks need a fresh
interpreter: the test process itself holds all of these through other
tests.
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

#: A sweep with ``workers=int(argv[2])`` into the store at ``argv[1]``.
SWEEP_CHILD = """
import json, sys

from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep

config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
results = run_sweep(
    ["scc-2s"], config, arrival_rates=[40.0], store=sys.argv[1],
    workers=int(sys.argv[2]),
)
assert results["SCC-2S"].replications[0][0].committed > 0
print(json.dumps(sorted(set(sys.argv[3:]) & set(sys.modules))))
"""

#: The CLI run once for each argument list in the JSON list ``argv[1]``.
CLI_CHILD = """
import json, sys

from repro.experiments.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))
"""

SERVE_CHILD = """
import json, sys

import repro.gateway.app
import repro.gateway.server

print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""

#: A gateway started on the store at ``argv[1]``, asked for a grid the
#: store already holds, through every experiment route.
CACHED_GATEWAY_CHILD = """
import json, sys, tempfile

from repro.gateway.app import GatewayApp
from repro.gateway.routes import Request, dispatch

spec = json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as workdir:
    app = GatewayApp(store=sys.argv[1], workdir=workdir)
    try:
        body = json.dumps(spec).encode()
        response = dispatch(
            app, Request(method="POST", path="/experiments", body=body)
        )
        assert response.status == 202, response.body
        assert response.body["status"] == "done", response.body
        assert response.body["cached_cells"] == 1, response.body
        experiment = response.body["id"]
        for path in ("/experiments", f"/experiments/{experiment}",
                     f"/experiments/{experiment}/results", "/healthz"):
            response = dispatch(app, Request(method="GET", path=path))
            assert response.status == 200, (path, response.body)
        lines, done = app.wait_events(experiment, 0, 0)
        assert done and json.loads(lines[-1])["kind"] == "experiment_done"
    finally:
        app.close()
print(json.dumps(sorted(set(sys.argv[3:]) & set(sys.modules))))
"""

#: Imports the module ``argv[1]`` and names every loaded module in a
#: package listed in ``argv[2:]``.
LAYER_CHILD = """
import importlib, json, sys

importlib.import_module(sys.argv[1])
packages = sys.argv[2:]
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == p or name.startswith(p + ".") for p in packages)
)))
"""

#: The simulation layer: loaded with a process's first cell.
SIMULATION = ["numpy", "repro.engine.array", "repro.system.model"]

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


def _stored_grid(tmp_path) -> Path:
    """A JSONL store holding the grid :data:`SWEEP_CHILD` runs."""
    from repro.experiments.config import baseline_config
    from repro.experiments.runner import run_sweep

    store = tmp_path / "runs.jsonl"
    config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
    run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store)
    return store


def test_cached_parallel_rerun_skips_multiprocessing(tmp_path):
    # Every cell is in the store, so no host is forked: the job-board
    # executor is never built, and neither it nor the process machinery
    # (nor numpy, since no cell runs) is loaded even though --workers 2
    # selects it.
    store = _stored_grid(tmp_path)
    modules = [
        "repro.experiments.distributed", "multiprocessing", "concurrent.futures",
        *SIMULATION,
    ]
    assert _loaded(SWEEP_CHILD, modules, (str(store), "2")) == []


def test_cached_serial_rerun_skips_numpy(tmp_path):
    store = _stored_grid(tmp_path)
    assert _loaded(SWEEP_CHILD, SIMULATION, (str(store), "1")) == []


def test_workers_parent_leaves_numpy_to_its_hosts(tmp_path):
    # The hosts compute every cell after the fork; the parent only
    # coordinates, so it never imports the simulation layer.  It forks
    # and reaps the hosts with os.fork/os.waitpid, so a cold --workers
    # sweep never loads multiprocessing either.
    store = tmp_path / "runs.jsonl"
    modules = [*SIMULATION, "multiprocessing"]
    assert _loaded(SWEEP_CHILD, modules, (str(store), "2")) == []
    assert store.stat().st_size > 0


def test_results_and_specs_commands_skip_numpy(tmp_path):
    store = str(_stored_grid(tmp_path))
    commands = [["results", "list", "--store", store], ["specs"]]
    assert _loaded(CLI_CHILD, SIMULATION, (json.dumps(commands),)) == []


def test_serve_path_loads_no_event_loop_profiling_or_client():
    assert _loaded(SERVE_CHILD, SKIPPED_BY_BOTH) == []


def test_gateway_skips_numpy_until_it_computes_a_cell(tmp_path):
    from repro.experiments.spec import ExperimentSpec

    assert _loaded(SERVE_CHILD, SIMULATION) == []
    store = tmp_path / "runs.jsonl"
    spec = {
        "schema": 1, "protocols": ["scc-2s"], "arrival_rates": [40.0],
        "replications": 1, "num_transactions": 40, "warmup_commits": 4,
    }
    ExperimentSpec.from_dict(spec).run(store=store)
    args = (str(store), json.dumps(spec))
    assert _loaded(CACHED_GATEWAY_CHILD, SIMULATION, args) == []


def test_engine_loads_no_layer_above_it():
    # The workload builder, the protocols and the system all import the
    # engine; the engine imports none of them.
    above = ["repro.workloads", "repro.core", "repro.protocols", "repro.system"]
    assert _loaded(LAYER_CHILD, above, ("repro.engine.array",)) == []
