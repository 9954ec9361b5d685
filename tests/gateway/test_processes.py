"""The gateway's process model: forked board hosts, kept by a keeper.

A host is a forked process, so a host that dies mid-cell has its cell
recomputed on a replacement, and a cell that kills every host it runs on
ends as a ``WorkerLost`` failure of its own experiment only.  Every fork
happens in a process with one thread and no SQLite file open, no host is
exec'd, and no process the gateway forked outlives ``close()`` or a
``repro serve`` stopped by SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.gateway import GatewayClient

from tests.gateway.conftest import tiny_spec_dict

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="gateway hosts are forked processes"
)

SRC = str(Path(repro.__file__).resolve().parents[1])


def wait_done(app, experiment_id: str, timeout: float = 60.0) -> str:
    status = app._get(experiment_id).wait(timeout=timeout)
    assert status != "running", "experiment did not finish in time"
    return status


def gone(pid: int) -> bool:
    """Whether no process ``pid`` exists (a zombie still does)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_a_host_killed_mid_cell_is_replaced_and_the_cell_recomputed(
    make_app, file_event, tmp_path
):
    first_claim = tmp_path / "first-claim"
    started = file_event()
    release = file_event()

    def hold_the_first_claim(cell):
        try:
            fd = os.open(first_claim, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return  # the recomputation runs through
        os.close(fd)
        started.set()
        release.wait(60)

    app = make_app(workers=1, fault_hook=hold_the_first_claim)
    status = app.submit(tiny_spec_dict(protocols=["scc-2s"]), client="alice")
    assert started.wait(30)
    [(worker, host)] = app.health()["hosts"].items()
    assert host["cell"] == "SCC-2S rate=60 rep=0"
    assert 0.0 <= host["lease_age_s"] < app.lease_seconds
    os.kill(host["pid"], signal.SIGKILL)
    assert wait_done(app, status["id"]) == "done"
    final = app.status(status["id"])
    assert final["failed"] == [] and final["completed"] == 1
    assert len(app.results(status["id"])) == 1
    # A replacement serves the board now; the killed host is gone.
    [(replacement, now)] = app.health()["hosts"].items()
    assert replacement != worker and now["pid"] != host["pid"]
    assert gone(host["pid"])


def test_a_cell_that_kills_every_host_fails_alone_as_worker_lost(make_app):
    # Each host that claims alice's cell dies; after the sweep's attempt
    # ceiling (3) the cell fails as WorkerLost, and bob's experiment on
    # the replacement hosts still ends done.
    def die_at_rate_61(cell):
        if cell.arrival_rate == 61.0:
            os.kill(os.getpid(), signal.SIGKILL)

    app = make_app(workers=2, fault_hook=die_at_rate_61)
    alice = app.submit(
        tiny_spec_dict(protocols=["scc-2s"], arrival_rates=[61.0]),
        client="alice",
    )
    bob = app.submit(tiny_spec_dict(protocols=["scc-2s"]), client="bob")
    assert wait_done(app, bob["id"]) == "done"
    assert wait_done(app, alice["id"]) == "partial"
    [failed] = app.status(alice["id"])["failed"]
    assert failed["error"]["type"] == "WorkerLost"
    assert "3 time(s)" in failed["error"]["message"]
    assert app.status(bob["id"])["failed"] == []
    events, _ = app.wait_events(alice["id"], 0, 0)
    kinds = [json.loads(line)["kind"] for line in events]
    assert kinds[1:4] == ["cell_started", "cell_completed", "cell_outcome"]


def test_close_leaves_no_process_the_gateway_forked(make_app):
    app = make_app(workers=2)
    status = app.submit(tiny_spec_dict(), client="alice")
    assert wait_done(app, status["id"]) == "done"
    pids = [host["pid"] for host in app.health()["hosts"].values()]
    pids.append(app._keeper.pid)
    assert len(pids) == 3 and not any(gone(pid) for pid in pids)
    app.close()
    assert all(gone(pid) for pid in pids)


#: Records, for every ``os.fork`` in this process and the processes it
#: forks, how many threads the forking process had and which SQLite
#: files it held open; then runs ``repro serve`` on ``argv[1]`` (store)
#: and ``argv[2]`` (workdir) until SIGALRM stops it, and a ``--workers``
#: sweep into the store ``argv[3]``.
FORK_RECORDER = """
import json, os, signal, sys

log = os.path.join(sys.argv[2], "forks.jsonl")
real_fork = os.fork


def threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def open_sqlite_files():
    names = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if ".sqlite" in target:
            names.append(os.path.basename(target))
    return sorted(names)


def recording_fork():
    entry = {"pid": os.getpid(), "threads": threads(), "sqlite": open_sqlite_files()}
    with open(log, "a") as out:
        out.write(json.dumps(entry) + "\\n")
    return real_fork()


os.fork = recording_fork
from repro.experiments.cli import main
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep

signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGTERM))
signal.setitimer(signal.ITIMER_REAL, 1.5)
assert main(["serve", "--store", sys.argv[1], "--port", "0",
             "--workdir", os.path.join(sys.argv[2], "board")]) == 0
with open(log, "a") as out:
    out.write(json.dumps({"sweep": True}) + "\\n")
config = baseline_config(num_transactions=40, warmup_commits=0, replications=1)
run_sweep(["scc-2s"], config, arrival_rates=[40.0, 70.0], store=sys.argv[3],
          workers=2)
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads"
)
def test_every_fork_is_made_by_a_process_with_one_thread_and_no_sqlite(tmp_path):
    # serve forks its keeper before its server starts a thread and
    # before it opens its store; the keeper forks the hosts; the sweep
    # parent forks its own.  No fork carries the board, and none of
    # serve's carries a SQLite file at all.
    done = subprocess.run(
        [sys.executable, "-c", FORK_RECORDER, str(tmp_path / "gw.sqlite"),
         str(tmp_path), str(tmp_path / "sweep.sqlite")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    lines = [
        json.loads(line)
        for line in (tmp_path / "forks.jsonl").read_text().splitlines()
    ]
    split = lines.index({"sweep": True})
    serving, sweep = lines[:split], lines[split + 1:]
    # serve's keeper, then its two hosts, forked by the keeper; the
    # sweep's two hosts, forked by the child itself.
    assert len(serving) == 3 and len(sweep) == 2
    assert len({fork["pid"] for fork in serving}) == 2
    assert all(fork["threads"] == 1 for fork in serving + sweep), lines
    assert all(fork["sqlite"] == [] for fork in serving), serving
    assert not any(
        name.startswith("board.sqlite")
        for fork in sweep for name in fork["sqlite"]
    ), sweep


def test_serve_stopped_by_sigterm_leaves_no_process_of_its_group(tmp_path):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--store", str(tmp_path / "store.sqlite"), "--port", "0",
         "--workdir", str(tmp_path / "work"), "--workers", "2"],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        line = ""
        while "gateway listening on" not in line:
            line = server.stderr.readline()
            assert line, "serve exited before it listened"
        client = GatewayClient(port=int(line.rsplit(":", 1)[1]), client_id="a")
        accepted = client.submit(tiny_spec_dict())
        assert client.wait(accepted["id"])["status"] == "done"
        hosts = client.health()["hosts"]
        assert len(hosts) == 2
        # Forked, not exec'd: a host runs the serving process's command.
        cmdline = Path(f"/proc/{server.pid}/cmdline")
        if cmdline.exists():
            for host in hosts.values():
                assert (
                    Path(f"/proc/{host['pid']}/cmdline").read_bytes()
                    == cmdline.read_bytes()
                )
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(server.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of serve's group outlived it"
            time.sleep(0.05)
    finally:
        if server.poll() is None:
            server.kill()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stderr.close()
