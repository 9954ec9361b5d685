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
either.  The simulation layer loads only in a process that runs a
cell, when it runs its first one: not in the ``results``/``specs``
commands, a rerun served from its store, the parent of a ``--workers``
sweep (its hosts run the cells), or a gateway that has computed
nothing.  No program process loads numpy at all: a cold serial ``repro
run``, a ``--workers`` host and a gateway that has computed a cell draw
their workloads from repro's own streams.  Nor does any program process
load ``hashlib`` or map OpenSSL's ``libcrypto``: cell fingerprints use
the interpreter's built-in SHA-256 (checked in each of those processes,
a gateway serving cached cells and the ``results`` commands; skipped on
an interpreter without one, where ``hashlib`` is the fallback), and
``serve`` makes experiment ids from ``os.urandom``, so it loads no
``uuid``, ``platform`` or ``libuuid``.  Nor, in its whole life, does a
paper-baseline process load what it never runs (a cold serial run, the
``--workers`` hosts and a computing gateway): the tracer and its event
types, confidence intervals, tables, ``csv`` and the workload kinds
beyond each axis's default; a traced run loads the tracer and a
diurnal-oltp run the extension kinds, and a confidence interval loads
no numerical library.  No program process loads ``dataclasses`` (nor
the ``inspect``, ``ast`` and ``dis`` it pulls in) in its whole life:
records are slotted classes on :mod:`repro._record`, and no module
under ``src/repro`` imports ``dataclasses``.  ``serve`` loads the job
board from :mod:`repro.experiments.board`, never the ``--workers``
executor, while it listens and after it computes.  The engine is the
bottom layer: importing it loads no workload, protocol or system
module.  Package roots resolve
their names on first access (``repro._lazy``), so each of these stays
out unless a command reaches for it.  The checks need a fresh
interpreter: the test process itself holds all of these through other
tests.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Put ahead of every child.  ``loaded(names)`` lists which of ``names``
#: the child has loaded: a module in ``sys.modules``, or a shared library
#: mapped into the process, named without its directory and its ``.so``
#: suffix (``libcrypto`` for ``/usr/lib/libcrypto.so.3``).  Libraries are
#: read from ``/proc/self/maps``; where there is no ``/proc``, none is
#: ever reported, so that half of a check is skipped.
LOADED = """
import sys


def loaded(names):
    try:
        with open("/proc/self/maps") as maps:
            libraries = {
                line.split()[-1].rpartition("/")[2].partition(".so")[0]
                for line in maps
            }
    except OSError:
        libraries = set()
    return sorted(n for n in set(names) if n in sys.modules or n in libraries)
"""

RUN_CHILD = """
import json, sys, tempfile
from pathlib import Path

import repro
import repro.experiments.cli
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep

config = baseline_config(
    num_transactions=40, warmup_commits=0, replications=1,
    check_serializability=True,
)
with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "runs.jsonl"
    results = run_sweep(["scc-2s"], config, arrival_rates=[40.0], store=store)
    assert results["SCC-2S"].replications[0][0].committed > 0
    assert store.stat().st_size > 0
print(json.dumps(loaded(sys.argv[1:])))
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
print(json.dumps(loaded(sys.argv[3:])))
"""

#: The CLI run once for each argument list in the JSON list ``argv[1]``.
CLI_CHILD = """
import json, sys

from repro.experiments.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(loaded(sys.argv[2:])))
"""

SERVE_CHILD = """
import json, sys

import repro.gateway.app
import repro.gateway.server

print(json.dumps(loaded(sys.argv[1:])))
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
print(json.dumps(loaded(sys.argv[3:])))
"""

#: A gateway started on the empty store at ``argv[1]`` that computes the
#: grid ``argv[2]`` on its worker threads.
COMPUTING_GATEWAY_CHILD = """
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
        experiment, events, done = response.body["id"], [], False
        while not done:
            lines, done = app.wait_events(experiment, len(events), 60)
            events += lines
        assert json.loads(events[-1])["kind"] == "experiment_done", events[-1]
    finally:
        app.close()
print(json.dumps(loaded(sys.argv[3:])))
"""

#: A gateway on the empty store at ``argv[1]``, listening on a real
#: socket, that computes the grid ``argv[2]``; prints which modules of
#: ``argv[3:]`` it had loaded while listening and once it had computed.
LISTENING_GATEWAY_CHILD = """
import json, sys, tempfile

from repro.gateway.app import GatewayApp
from repro.gateway.routes import Request, dispatch
from repro.gateway.server import GatewayServer

spec = json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as workdir:
    app = GatewayApp(store=sys.argv[1], workdir=workdir)
    server = GatewayServer(app, port=0)
    server.start()
    listening = loaded(sys.argv[3:])
    body = json.dumps(spec).encode()
    response = dispatch(app, Request(method="POST", path="/experiments", body=body))
    assert response.status == 202, response.body
    experiment, events, done = response.body["id"], [], False
    while not done:
        lines, done = app.wait_events(experiment, len(events), 60)
        events += lines
    assert json.loads(events[-1])["kind"] == "experiment_done", events[-1]
    computed = loaded(sys.argv[3:])
    server.request_shutdown()
    server.run()
print(json.dumps([listening, computed]))
"""

#: A Student-t interval over three samples.
INTERVAL_CHILD = """
import json, sys

from repro.metrics.confidence import mean_confidence_interval

assert mean_confidence_interval([1.0, 2.0, 4.0]).half_width > 0
print(json.dumps(loaded(sys.argv[1:])))
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
SIMULATION = ["repro.engine.array", "repro.engine.rng", "repro.system.model"]

#: A spec of one small cell, for the CLI and the gateway.
ONE_CELL = {
    "schema": 1, "protocols": ["scc-2s"], "arrival_rates": [40.0],
    "replications": 1, "num_transactions": 40, "warmup_commits": 4,
}

#: Cells run on two forked hosts; each cell's runner simulates it and
#: reports which modules of ``argv[1:]`` its host has loaded by then.
HOST_CHILD = """
import json, sys

from repro.experiments.config import baseline_config
from repro.experiments.distributed import DistributedSweepExecutor
from repro.experiments.runner import build_cells, run_once
from repro.protocols.registry import protocol_spec

config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)


def runner(cell):
    summary = run_once(
        protocol_spec("scc-2s"), config, cell.arrival_rate, cell.replication
    )
    assert summary.committed > 0
    return loaded(sys.argv[1:])


cells = build_cells(["P"], [40.0, 70.0], 1)
seen = set()
for outcome in DistributedSweepExecutor(workers=2).run(cells, runner):
    assert outcome.error is None, outcome.error
    seen.update(outcome.summary)
print(json.dumps(sorted(seen)))
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

#: OpenSSL as a fingerprint through ``hashlib`` would load it: the
#: module, its ``_hashlib`` binding and the library that maps.  Checked
#: only on an interpreter with a built-in SHA-256 (``_sha2`` from 3.12,
#: ``_sha256`` before); without one, ``hashlib`` is the fallback.
OPENSSL = (
    ["hashlib", "_hashlib", "libcrypto"]
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    else []
)

#: What ``uuid.uuid4`` would load; gateway experiment ids come from
#: ``os.urandom`` instead.
UUID = ["uuid", "_uuid", "platform", "libuuid"]

#: What a paper-baseline process never runs, so never loads in its whole
#: life: the tracer and its event types, confidence intervals, tables,
#: CSV, and the workload kinds beyond each axis's default.
UNUSED_BY_PAPER_BASELINE = [
    "repro.telemetry.tracer",
    "repro.telemetry.events",
    "repro.metrics.confidence",
    "repro.metrics.report",
    "csv",
    "repro.workloads.extensions",
]


#: What building records as standard-library data classes loads: the
#: package's records are built on :mod:`repro._record` instead.
DATACLASS_MACHINERY = ["dataclasses", "inspect", "ast", "dis"]


def _loaded(child: str, modules: list, args: tuple = ()) -> list:
    """The ``modules`` a fresh interpreter running ``child`` has loaded.

    ``args`` come first on the child's command line, then ``modules``;
    a module may also be a shared library (see :data:`LOADED`).
    """
    # Let the child import the same checkout whatever the working directory.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LOADED + child, *args, *modules],
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


def test_cold_serial_run_computes_cells_without_numpy(tmp_path):
    # The cell is simulated in this process (the system model loads),
    # from workloads drawn by repro's own streams, and fingerprinted
    # with the built-in SHA-256.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ONE_CELL))
    commands = [["run", str(spec), "--store", str(tmp_path / "runs.jsonl")]]
    modules = ["numpy", *OPENSSL, "repro.system.model"]
    loaded = _loaded(CLI_CHILD, modules, (json.dumps(commands),))
    assert loaded == ["repro.system.model"]


def test_workers_hosts_compute_cells_without_numpy():
    loaded = _loaded(HOST_CHILD, ["numpy", *OPENSSL, "repro.system.model"])
    assert loaded == ["repro.system.model"]


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
    # Nor the export module: listing a store renders no JSON or CSV.
    modules = [*SIMULATION, *OPENSSL, "repro.results.export"]
    assert _loaded(CLI_CHILD, modules, (json.dumps(commands),)) == []


def test_serve_path_loads_no_event_loop_profiling_or_client():
    assert _loaded(SERVE_CHILD, SKIPPED_BY_BOTH) == []


def test_gateway_skips_numpy_until_it_computes_a_cell(tmp_path):
    from repro.experiments.spec import ExperimentSpec

    assert _loaded(SERVE_CHILD, SIMULATION) == []
    store = tmp_path / "runs.jsonl"
    ExperimentSpec.from_dict(ONE_CELL).run(store=store)
    args = (str(store), json.dumps(ONE_CELL))
    modules = [*SIMULATION, *OPENSSL, *UUID]
    assert _loaded(CACHED_GATEWAY_CHILD, modules, args) == []


def test_gateway_computes_a_cell_without_numpy(tmp_path):
    # A fresh store: the gateway's worker computes the cell itself.
    store = tmp_path / "runs.jsonl"
    args = (str(store), json.dumps(ONE_CELL))
    modules = ["numpy", *OPENSSL, *UUID, "repro.system.model"]
    loaded = _loaded(COMPUTING_GATEWAY_CHILD, modules, args)
    assert loaded == ["repro.system.model"]
    assert store.stat().st_size > 0


def test_engine_loads_no_layer_above_it():
    # The workload builder, the protocols and the system all import the
    # engine; the engine imports none of them.
    above = ["repro.workloads", "repro.core", "repro.protocols", "repro.system"]
    assert _loaded(LAYER_CHILD, above, ("repro.engine.array",)) == []


def _cli_run(tmp_path, spec: dict, *flags: str) -> list:
    """A ``run`` of ``spec`` into a fresh store, as a CLI argument list."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    store = tmp_path / "runs.jsonl"
    return ["run", str(path), "--store", str(store), *flags]


def test_cold_serial_paper_run_loads_nothing_it_never_runs(tmp_path):
    # --format json, as the e2e benchmark runs it: the table renderer
    # is for --format table only.
    commands = [_cli_run(tmp_path, ONE_CELL, "--format", "json")]
    modules = [*UNUSED_BY_PAPER_BASELINE, "repro.system.model"]
    loaded = _loaded(CLI_CHILD, modules, (json.dumps(commands),))
    assert loaded == ["repro.system.model"]


def test_workers_hosts_load_nothing_a_paper_cell_never_runs():
    modules = [*UNUSED_BY_PAPER_BASELINE, "repro.system.model"]
    assert _loaded(HOST_CHILD, modules) == ["repro.system.model"]


def test_computing_gateway_loads_nothing_a_paper_cell_never_runs(tmp_path):
    args = (str(tmp_path / "runs.jsonl"), json.dumps(ONE_CELL))
    modules = [*UNUSED_BY_PAPER_BASELINE, "repro.system.model"]
    loaded = _loaded(COMPUTING_GATEWAY_CHILD, modules, args)
    assert loaded == ["repro.system.model"]


def test_traced_run_loads_the_tracer(tmp_path):
    trace = str(tmp_path / "run.trace.jsonl")
    commands = [_cli_run(tmp_path, ONE_CELL, "--trace", trace)]
    modules = ["repro.telemetry.events", "repro.telemetry.tracer"]
    assert _loaded(CLI_CHILD, modules, (json.dumps(commands),)) == modules


def test_diurnal_run_loads_the_extension_kinds(tmp_path):
    spec = {**ONE_CELL, "scenario": "diurnal-oltp"}
    commands = [_cli_run(tmp_path, spec, "--format", "json")]
    modules = ["repro.workloads.extensions"]
    assert _loaded(CLI_CHILD, modules, (json.dumps(commands),)) == modules


def test_intervals_load_no_numerical_library():
    assert _loaded(INTERVAL_CHILD, ["numpy", "scipy"]) == []


def test_cold_serial_runs_never_load_dataclasses(tmp_path):
    # Both output formats: the table renderer builds records too.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ONE_CELL))
    commands = [
        ["run", str(spec), "--store", str(tmp_path / "a.jsonl"), "--format", "json"],
        ["run", str(spec), "--store", str(tmp_path / "b.jsonl")],
    ]
    modules = [*DATACLASS_MACHINERY, "repro.system.model"]
    loaded = _loaded(CLI_CHILD, modules, (json.dumps(commands),))
    assert loaded == ["repro.system.model"]


def test_workers_parent_and_hosts_never_load_dataclasses(tmp_path):
    store = str(tmp_path / "runs.jsonl")
    assert _loaded(SWEEP_CHILD, DATACLASS_MACHINERY, (store, "2")) == []
    modules = [*DATACLASS_MACHINERY, "repro.system.model"]
    assert _loaded(HOST_CHILD, modules) == ["repro.system.model"]


def test_serving_gateway_never_loads_dataclasses_or_the_sweep_executor(tmp_path):
    # The board comes from repro.experiments.board; the --workers
    # executor beside it is never compiled, listening or computing.
    args = (str(tmp_path / "runs.jsonl"), json.dumps(ONE_CELL))
    modules = [
        *DATACLASS_MACHINERY, "repro.experiments.distributed",
        "repro.experiments.board", "repro.system.model",
    ]
    listening, computed = _loaded(LISTENING_GATEWAY_CHILD, modules, args)
    assert listening == ["repro.experiments.board"]
    assert computed == ["repro.experiments.board", "repro.system.model"]


def test_results_and_specs_commands_never_load_dataclasses(tmp_path):
    store = str(_stored_grid(tmp_path))
    commands = [
        ["results", "list", "--store", store],
        ["results", "export", "--store", store, "--format", "csv"],
        ["specs"],
    ]
    assert _loaded(CLI_CHILD, DATACLASS_MACHINERY, (json.dumps(commands),)) == []


def test_no_module_imports_dataclasses():
    # Static, so it also covers modules no guarded process loads (the
    # timeline, intervals, trace events, extension workload kinds).
    package = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.relative_to(package.parent)}:{node.lineno}")
    assert offenders == []
