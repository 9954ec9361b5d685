"""Launch the program and drive the four benchmark workloads.

Everything here reaches the program the way a user does: it writes spec
JSON, runs ``python -m repro.experiments.cli run|serve`` as a child
process, reads the child's stderr for its ready line, and talks plain HTTP
to the gateway.  Nothing here imports ``repro``; the output checks in
:mod:`checks` read finished stores through ``repro.results.open_store``.

Timing conventions: every time is ``time.perf_counter()`` (system-wide
monotonic on Linux, so spans written by child processes line up with it).
A launch is timed from just before ``fork`` to the moment ``wait4`` reaps
it; peak RSS comes from the same ``wait4`` (on Linux it covers the child
and every descendant it reaped, so the process executor's pool workers
count).  A launch is *ready* when the program has done its set-up: the
serial executor's first per-cell ``running`` line, the process executor's
first pool worker (it logs no per-cell start, so the harness watches the
program's child processes in ``/proc``), or the gateway's ``listening``
line.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
LAYERS_PY = Path(__file__).resolve().with_name("layers.py")

WORKLOADS = ("paper-sweep", "contended-diurnal", "many-cells", "gateway-mixed")

#: Marker of the first per-cell progress line of ``repro run`` (serial
#: executor) and of the gateway's bind line: the program is ready.
RUN_READY = b"  running "
SERVE_READY = b"gateway listening on http://"
#: Ready marker of ``repro run --workers N``: the first forked pool worker.
FORKED = None

#: Per-launch ceiling; any launch beyond it is a hung program.
LAUNCH_TIMEOUT_S = 150.0


def _grid(scenario, protocols, rates, reps, txns):
    return {
        "scenario": scenario,
        "protocols": list(protocols),
        "arrival_rates": [float(rate) for rate in rates],
        "replications": reps,
        "num_transactions": txns,
        "warmup_commits": txns // 10,
    }


#: The cells of each workload, per scale.  ``full`` is what the benchmark
#: measures; ``smoke`` shrinks every workload for the harness self-test.
#: ``full`` keeps one run of any workload near 20 s on a host running at
#: half the speed it had when the grids were first sized (1500, 1000
#: transactions and 10 replications then): the benchmark format allows
#: 37 s a run on average.
GRIDS = {
    "full": {
        "paper-sweep": _grid(
            "paper-baseline",
            ["scc-2s", "scc-vw", "occ-bc", "wait-50", "2pl-pa"],
            [40, 70, 150], 2, 750,
        ),
        "contended-diurnal": _grid(
            "diurnal-oltp", ["scc-2s", "occ-bc"], [40, 70], 1, 500
        ),
        "many-cells": _grid(
            "flash-sale-hotspot",
            ["scc-2s", "scc-ks?k=3", "occ-bc", "wait-50"],
            [20, 40, 60, 80, 100, 120], 5, 100,
        ),
        # 4 cells of 100 transactions per experiment: the cold client then
        # keeps the gateway's worker threads busy about a quarter of the
        # time.  Cached resubmissions arriving while a cell holds the GIL
        # take 20-160 ms instead of ~4 ms; at half the busy time their
        # median sat on the jump between the two modes.
        "gateway-mixed": _grid(
            "paper-baseline", ["scc-2s", "occ-bc"], [70], 2, 100
        ),
    },
    "smoke": {
        "paper-sweep": _grid(
            "paper-baseline", ["scc-2s", "occ-bc"], [70, 150], 1, 300
        ),
        "contended-diurnal": _grid(
            "diurnal-oltp", ["scc-2s", "occ-bc"], [70], 1, 200
        ),
        "many-cells": _grid(
            "flash-sale-hotspot", ["scc-2s", "occ-bc"], [40, 80], 2, 50
        ),
        "gateway-mixed": _grid(
            "paper-baseline", ["scc-2s", "occ-bc"], [70], 1, 100
        ),
    },
}

#: Per-scale run shape.  ``seconds`` is the default measuring time;
#: ``setup_samples`` the launches ``setup_s`` is the median of;
#: ``warm_runs`` the warm reruns ``resume_s`` is the median of (a ``run``
#: workload); ``min_rounds`` the cold runs ``many-cells`` always makes;
#: ``warm_up_s`` how long every CPU spins before the first workload.
#: Host speed on a shared machine drifts and dips for seconds at a time,
#: so the short launches are repeated and spread over the run rather
#: than taken once.  And the first second of work after the vCPUs sat
#: idle ran up to 2x slower than the same work right after, so measuring
#: starts from warmed CPUs.
SCALES = {
    "full": {"seconds": 15, "setup_samples": 4, "warm_runs": 3,
             "min_rounds": 3, "warm_up_s": 1.0},
    "smoke": {"seconds": 2, "setup_samples": 1, "warm_runs": 1,
              "min_rounds": 1, "warm_up_s": 0.0},
}

#: ``many-cells`` runs the process executor (``--workers 2``) into SQLite.
MANY_CELLS_WORKERS = 2

#: Gateway open-loop rates (submissions per second), both under the
#: default 10/s per-client quota, and how many pre-computed experiments
#: the ``cached`` client cycles through.
COLD_RATE = 2.0
CACHED_RATE = 5.0
CACHED_SPECS = 4
GATEWAY_WORKERS = 2


def warm_up(seconds: float) -> None:
    """Keep every CPU busy for ``seconds``, then return."""
    spin = (
        "import time\n"
        "start = time.perf_counter()\n"
        f"while time.perf_counter() - start < {seconds}: pass\n"
    )
    spinners = [
        subprocess.Popen([sys.executable, "-c", spin])
        for _ in range(os.cpu_count() or 1)
    ]
    for spinner in spinners:
        spinner.wait()


#: The host reference: a bare interpreter importing a fixed set of
#: standard-library modules.  It runs none of the program's code, so its
#: time moves only with the host's speed.  On the measuring host that
#: speed drifted by a fifth within minutes, and the reference drifted with
#: the program: over 4-minute probes, dividing by it cut the spread of
#: medians over 24-30 s windows from 23% to 3.4% for set-up time and from
#: 16% to 4.5% for a 3-second cold run.
REFERENCE_CODE = (
    "import argparse, asyncio, decimal, email.parser, http.client, json, "
    "logging, sqlite3, unittest, xml.dom.minidom"
)
#: End-to-end times are reported host-adjusted: multiplied by
#: ``REFERENCE_S / host.ref_s``, which gives seconds on a host whose
#: reference launch takes this long.
REFERENCE_S = 0.1


def derive_seed(seed: int, *labels) -> int:
    """A spec seed derived from the benchmark seed and a label path."""
    text = "/".join(str(part) for part in (seed, *labels))
    return random.Random(text).randrange(1, 2**31)


def make_spec(grid: dict, seed: int) -> dict:
    """The ``ExperimentSpec`` JSON for one grid and spec seed."""
    return {"schema": 1, "seed": seed, **grid}


def cells_in(grid: dict) -> int:
    return (
        len(grid["protocols"])
        * len(grid["arrival_rates"])
        * grid["replications"]
    )


class LaunchError(RuntimeError):
    """A launch exited early, failed, or hung."""


class Launch:
    """One program process: spawned, watched for a ready line, reaped.

    The child leads its own process group, so a kill reaches every
    process it forked.  Its stdout and stderr go to files in the work
    directory (no pipe can fill up and stall it); the ready line is found
    by polling the stderr file.
    """

    def __init__(self, argv: list, env: dict, logs: Path) -> None:
        self.out_path = logs.with_suffix(".out")
        self.err_path = logs.with_suffix(".err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True,
            )
        self.ended: Optional[float] = None
        self.exit_code: Optional[int] = None
        self.rss_mb: Optional[float] = None
        self.timed_out = False

    @property
    def alive(self) -> bool:
        return self.exit_code is None

    def _reap(self, flags: int) -> bool:
        pid, status, usage = os.wait4(self.proc.pid, flags)
        if pid == 0:
            return False
        self.ended = time.perf_counter()
        self.exit_code = os.waitstatus_to_exitcode(status)
        # Popen must not try to reap the pid again.
        self.proc.returncode = self.exit_code
        self.rss_mb = usage.ru_maxrss / 1024.0
        return True

    def _children(self) -> bool:
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children") as f:
                return bool(f.read().strip())
        except OSError:
            return False

    def wait_ready(self, marker: Optional[bytes]) -> tuple[float, str]:
        """Seconds from spawn until the program is ready.

        ``marker`` is the start of the stderr line that says so, or
        :data:`FORKED` for the first child process.  Returns the time and
        the line (empty for a fork).  Polls every 2 ms, so the time is
        late by at most that.
        """
        seen = b""
        with open(self.err_path, "rb") as err:
            while True:
                exited = not self.alive or self._reap(os.WNOHANG)
                if marker is FORKED:
                    if not exited and self._children():
                        return time.perf_counter() - self.started, ""
                    end = -1
                else:
                    seen += err.read()
                    at = seen.find(marker)
                    end = seen.find(b"\n", at) if at >= 0 else -1
                if end >= 0:
                    ready = time.perf_counter() - self.started
                    return ready, seen[at:end].decode(errors="replace")
                if exited:
                    raise LaunchError(
                        f"exited {self.exit_code} before ready: {self.tail()}"
                    )
                if time.perf_counter() - self.started > LAUNCH_TIMEOUT_S:
                    self.kill()
                    raise LaunchError("no ready line before the timeout")
                time.sleep(0.002)

    def finish(self) -> float:
        """Block until exit; returns seconds from spawn to exit.

        A watchdog kills the process group if it outlives
        :data:`LAUNCH_TIMEOUT_S`, so a hung program cannot hang the
        benchmark.
        """
        if self.alive:
            remaining = self.started + LAUNCH_TIMEOUT_S - time.perf_counter()
            watchdog = threading.Timer(max(remaining, 0.0), self._expire)
            watchdog.start()
            try:
                self._reap(0)
            finally:
                watchdog.cancel()
            if self.timed_out:
                raise LaunchError(f"still running after {LAUNCH_TIMEOUT_S:g}s")
        return self.ended - self.started

    def _expire(self) -> None:
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def terminate(self) -> float:
        """SIGTERM (the gateway's graceful drain), then :meth:`finish`."""
        if self.alive:
            os.kill(self.proc.pid, signal.SIGTERM)
        return self.finish()

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is gone."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.alive:
            self._reap(0)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def stdout(self) -> bytes:
        return self.out_path.read_bytes()

    def tail(self, lines: int = 5) -> str:
        text = self.err_path.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-lines:])


class Workspace:
    """The work directory of one benchmark run and every launch in it.

    ``spans`` set means traced launches: the program starts through
    ``layers.py``, which wraps the layer boundaries and writes its spans
    there.  :meth:`close` kills anything still running.
    """

    def __init__(self, work: Path, spans: Optional[Path] = None) -> None:
        self.work = work
        self.spans = spans
        work.mkdir(parents=True, exist_ok=True)
        self._count = 0
        self._launches: list[Launch] = []
        self.env = dict(os.environ)
        path = [str(SRC)] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        # Keep the program's temp files (the gateway's default board
        # directory, for one) inside the checkout.
        self.env["TMPDIR"] = str(work)

    def path(self, name: str) -> Path:
        return self.work / name

    def reference(self) -> float:
        """Seconds one host-reference launch takes, spawn to exit."""
        self._count += 1
        launch = Launch([sys.executable, "-c", REFERENCE_CODE], self.env,
                        self.work / f"reference-{self._count}")
        self._launches.append(launch)
        seconds = launch.finish()
        if launch.exit_code != 0:
            raise LaunchError(f"reference launch exited {launch.exit_code}: {launch.tail()}")
        return seconds

    def launch(self, args: list) -> Launch:
        if self.spans is None:
            argv = [sys.executable, "-m", "repro.experiments.cli", *args]
        else:
            argv = [sys.executable, str(LAYERS_PY), str(self.spans), *args]
        self._count += 1
        launch = Launch(argv, self.env, self.work / f"launch-{self._count}")
        self._launches.append(launch)
        return launch

    def close(self) -> None:
        for launch in self._launches:
            if launch.alive:
                launch.kill()


@dataclass
class Raw:
    """What one workload run measured, before it is reduced to metrics.

    ``cold``/``warm`` hold one latency per request: a ``repro run``
    launch (spawn to exit) for the ``run`` workloads, a submission (due
    time to ``experiment_done``) for the gateway.
    """

    setup: list = field(default_factory=list)
    cold: list = field(default_factory=list)
    warm: list = field(default_factory=list)
    #: Host-reference launch times taken between the measured launches.
    refs: list = field(default_factory=list)
    #: For each launch-timed sample above, the reference launched just
    #: before it (empty for gateway requests).
    setup_refs: list = field(default_factory=list)
    cold_refs: list = field(default_factory=list)
    warm_refs: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    first_event: list = field(default_factory=list)
    queue_wait: list = field(default_factory=list)
    late: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Stores to check, each with the spec seeds whose grids it must hold.
    stores: list = field(default_factory=list)
    #: (spawn time, wall, cells, workers) of the first cold launch.
    first_cold: Optional[tuple] = None
    #: Spec seeds whose summaries make up the workload digest.
    digest_seeds: list = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.problems.append(problem)
        self.failed += count

    def reference(self, workspace: "Workspace") -> float:
        """Time one host-reference launch and keep it."""
        self.refs.append(workspace.reference())
        return self.refs[-1]


# ----------------------------------------------------------------------
# `repro run` workloads
# ----------------------------------------------------------------------


def run_workload(
    workspace: Workspace, workload: str, scale: str, seed: int, seconds: float,
    samples: bool = True,
) -> Raw:
    """Cold runs into fresh stores, warm reruns, and set-up probes.

    A round is one cold ``repro run`` into a fresh store and one warm
    rerun of the spec against it (every cell cached).  ``many-cells``
    runs at least ``min_rounds``; rounds then repeat while another one
    fits in ``seconds``.  After the rounds, warm reruns and set-up probes
    (each into its own fresh store, killed at the ready line) alternate
    until each has its samples, so a short slow spell of the host lands
    on a minority of them.  ``samples=False`` (the traced mode) takes
    only the rounds: no minimum, no extra warm reruns, no probes.
    """
    shape = SCALES[scale]
    grid = GRIDS[scale][workload]
    spec_seed = derive_seed(seed, workload)
    spec_path = workspace.path(f"{workload}.json")
    spec_path.write_text(json.dumps(make_spec(grid, spec_seed), indent=2))
    cells = cells_in(grid)
    parallel = workload == "many-cells"
    suffix = ".sqlite" if parallel else ".jsonl"
    workers = ["--workers", str(MANY_CELLS_WORKERS)] if parallel else []
    ready_marker = FORKED if parallel else RUN_READY
    warm_needed = shape["warm_runs"] if samples else 1
    setup_needed = shape["setup_samples"] if samples else 0
    min_rounds = shape["min_rounds"] if parallel and samples else 1
    raw = Raw(digest_seeds=[spec_seed])
    started = time.perf_counter()

    def run_args(store: Path) -> list:
        return ["run", str(spec_path), "--store", str(store),
                "--format", "json", *workers]

    def probe() -> None:
        # The same command as a cold run, into a fresh store of its own,
        # killed once it is ready.
        ref = raw.reference(workspace)
        launch = workspace.launch(
            run_args(workspace.path(f"probe-{len(raw.setup)}{suffix}"))
        )
        try:
            raw.setup.append(launch.wait_ready(ready_marker)[0])
            raw.setup_refs.append(ref)
        finally:
            launch.kill()

    def warm(args: list, expected: bytes) -> None:
        ref = raw.reference(workspace)
        launch = workspace.launch(args)
        raw.warm.append(launch.finish())
        raw.warm_refs.append(ref)
        raw.rss_mb.append(launch.rss_mb)
        raw.attempted += cells
        if launch.exit_code != 0:
            raw.fail(f"warm run exited {launch.exit_code}: {launch.tail()}", cells)
        elif launch.stdout() != expected:
            raw.fail("warm rerun's --format json output differs from the cold run's")

    while True:
        round_start = time.perf_counter()
        store = workspace.path(f"store-{len(raw.cold)}{suffix}")
        args = run_args(store)
        ref = raw.reference(workspace)
        cold = workspace.launch(args)
        ready = cold.wait_ready(ready_marker)[0]
        wall = cold.finish()
        raw.attempted += cells
        if cold.exit_code != 0:
            raw.fail(f"cold run exited {cold.exit_code}: {cold.tail()}", cells)
            return raw
        expected = cold.stdout()
        if len(raw.setup) < setup_needed:
            raw.setup.append(ready)
            raw.setup_refs.append(ref)
        raw.cold.append(wall)
        raw.cold_refs.append(ref)
        raw.rss_mb.append(cold.rss_mb)
        raw.stores.append((store, [spec_seed]))
        if raw.first_cold is None:
            raw.first_cold = (
                cold.started, wall, cells, MANY_CELLS_WORKERS if parallel else 1
            )
        warm(args, expected)
        spent = time.perf_counter() - started
        late = spent + (time.perf_counter() - round_start) > seconds
        if len(raw.cold) >= min_rounds and late:
            break
    while len(raw.warm) < warm_needed or len(raw.setup) < setup_needed:
        if len(raw.setup) < setup_needed:
            probe()
        if len(raw.warm) < warm_needed:
            warm(args, expected)
    return raw


# ----------------------------------------------------------------------
# the gateway workload
# ----------------------------------------------------------------------


def _post(port: int, client: str, payload: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", "/experiments", body=json.dumps(payload),
            headers={"X-Client": client, "Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    finally:
        conn.close()


@dataclass
class Submission:
    """One gateway request as the client saw it."""

    kind: str
    spec_seed: int
    due: float
    sent: float = 0.0
    status: int = 0
    first_event: Optional[float] = None
    accepted: Optional[float] = None
    started: Optional[float] = None
    done: Optional[float] = None
    final: Optional[str] = None
    summaries: dict = field(default_factory=dict)
    cached: list = field(default_factory=list)
    error: Optional[str] = None


def submit_and_follow(port: int, client: str, spec: dict, sub: Submission) -> Submission:
    """POST one experiment, then read its NDJSON stream to the end."""
    sub.sent = time.perf_counter()
    try:
        sub.status, body = _post(port, client, spec)
        if sub.status != 202:
            sub.error = f"HTTP {sub.status}: {body.get('error')}"
            return sub
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request(
                "GET", f"/experiments/{body['id']}/events",
                headers={"X-Client": client},
            )
            response = conn.getresponse()
            if response.status != 200:
                sub.status = response.status
                sub.error = f"events stream HTTP {response.status}"
                return sub
            for line in iter(response.readline, b""):
                now = time.perf_counter()
                if not line.strip():
                    continue
                event = json.loads(line)
                kind = event.get("kind")
                if sub.first_event is None:
                    sub.first_event = now
                if kind == "experiment_accepted":
                    sub.accepted = now
                elif kind == "cell_started" and sub.started is None:
                    sub.started = now
                elif kind == "cell_outcome":
                    cell = event["cell"]
                    key = (cell["protocol"], cell["arrival_rate"], cell["replication"])
                    sub.summaries[key] = event["summary"]
                    sub.cached.append(bool(event["cached"]))
                elif kind in ("experiment_done", "experiment_interrupted"):
                    sub.done = now
                    sub.final = event.get("status", "interrupted")
        finally:
            conn.close()
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        sub.error = f"{type(exc).__name__}: {exc}"
    return sub


def _open_loop(port, client, rate, t0, seconds, next_spec, kind, out) -> None:
    """Submit at ``rate``/s from ``t0`` for ``seconds``, on schedule.

    Requests are timed from their due time, so a stall that delays later
    sends shows up in their latency; lateness is kept separately.
    """
    index = 0
    while index / rate < seconds:
        due = t0 + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        spec_seed, spec = next_spec(index)
        out.append(submit_and_follow(
            port, client, spec, Submission(kind, spec_seed, due)
        ))
        index += 1


def gateway_workload(
    workspace: Workspace, scale: str, seed: int, seconds: float,
    samples: bool = True,
) -> Raw:
    """``repro serve`` under a two-client open loop.

    ``cold`` submits a fresh-seed experiment every 1/COLD_RATE s (every
    cell must be computed); ``cached`` resubmits one of a few experiments
    computed before the loop starts (every cell is in the store).  One
    thread per client, one connection open per thread at a time.
    """
    shape = SCALES[scale]
    grid = GRIDS[scale]["gateway-mixed"]
    cells = cells_in(grid)
    raw = Raw()

    def serve(tag: str) -> Launch:
        return workspace.launch([
            "serve", "--store", str(workspace.path(f"{tag}.sqlite")),
            "--workdir", str(workspace.path(f"{tag}-board")),
            "--workers", str(GATEWAY_WORKERS), "--port", "0",
        ])

    while samples and len(raw.setup) < shape["setup_samples"] - 1:
        ref = raw.reference(workspace)
        launch = serve(f"probe-{len(raw.setup)}")
        try:
            raw.setup.append(launch.wait_ready(SERVE_READY)[0])
            raw.setup_refs.append(ref)
        finally:
            launch.kill()

    ref = raw.reference(workspace)
    launch = serve("gateway")
    try:
        ready, line = launch.wait_ready(SERVE_READY)
        raw.setup.append(ready)
        raw.setup_refs.append(ref)
        port = int(line.rsplit(":", 1)[1])
        cached_seeds = [
            derive_seed(seed, "gateway-mixed", "cached", j)
            for j in range(CACHED_SPECS)
        ]
        reference = {}
        for spec_seed in cached_seeds:
            sub = submit_and_follow(
                port, "cached", make_spec(grid, spec_seed),
                Submission("precompute", spec_seed, time.perf_counter()),
            )
            raw.attempted += 1
            if sub.error or sub.final != "done":
                raise LaunchError(f"pre-computing an experiment failed: {sub.error or sub.final}")
            reference[spec_seed] = sub.summaries
        picker = random.Random(derive_seed(seed, "gateway-mixed", "picks"))
        picks = [picker.choice(cached_seeds) for _ in range(int(CACHED_RATE * seconds) + 1)]

        def cold_spec(index):
            spec_seed = derive_seed(seed, "gateway-mixed", "cold", index)
            return spec_seed, make_spec(grid, spec_seed)

        def cached_spec(index):
            return picks[index], make_spec(grid, picks[index])

        subs_cold: list = []
        subs_cached: list = []
        t0 = time.perf_counter() + 0.05
        helper = threading.Thread(
            target=_open_loop,
            args=(port, "cached", CACHED_RATE, t0, seconds, cached_spec,
                  "cached", subs_cached),
        )
        helper.start()
        try:
            _open_loop(port, "cold", COLD_RATE, t0, seconds, cold_spec,
                       "cold", subs_cold)
        finally:
            helper.join()
    finally:
        if launch.alive:
            launch.terminate()
    raw.rss_mb.append(launch.rss_mb)
    if launch.exit_code != 0:
        raw.fail(f"serve exited {launch.exit_code}: {launch.tail()}")
    # As many reference launches after the loop as before it, so they
    # bracket the time the request latencies were measured in.
    for _ in list(raw.refs):
        raw.reference(workspace)

    for sub in subs_cold + subs_cached:
        raw.attempted += 1
        raw.late.append(max(0.0, sub.sent - sub.due))
        if sub.error or sub.final != "done":
            raw.fail(f"{sub.kind} submission failed: {sub.error or sub.final}")
            continue
        raw.first_event.append(sub.first_event - sub.due)
        if sub.kind == "cold":
            raw.cold.append(sub.done - sub.due)
        else:
            raw.warm.append(sub.done - sub.due)
        if len(sub.summaries) != cells:
            raw.fail(f"{sub.kind} submission streamed {len(sub.summaries)}/{cells} outcomes")
        if sub.kind == "cold" and sub.started is not None:
            raw.queue_wait.append(sub.started - sub.accepted)
        if sub.kind == "cached":
            if not all(sub.cached):
                raw.fail("a cached resubmission recomputed a cell")
            if sub.summaries != reference[sub.spec_seed]:
                raw.fail("a cached resubmission returned different summaries")
    raw.stores.append((
        workspace.path("gateway.sqlite"),
        cached_seeds + [sub.spec_seed for sub in subs_cold if sub.final == "done"],
    ))
    raw.digest_seeds = cached_seeds
    return raw
