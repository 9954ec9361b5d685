"""Fault-injection harness for the distributed executor.

Each test wounds the run somewhere specific — a host hard-killed
mid-cell, a lease silently dropped, a cell marked "done" with a damaged
outcome in its board row — and asserts the same recovery contract: the
sweep still completes, retries stay within ``max_attempts``, and the
results are bit-identical to a cold serial run.

The injection seam is the one the executor exposes on purpose:
``fault_hook(cell, attempt)`` runs in the worker right after a claim.
With a caller-supplied (kept) ``workdir`` a hook can also open the board
and finish its cell with a damaged outcome before it dies.
"""

import glob
import json
import multiprocessing
import os
import signal
import sqlite3
import tempfile
import time

import pytest

from repro.errors import SweepExecutionError
from repro.experiments.config import baseline_config
from repro.experiments.distributed import DistributedSweepExecutor, JobBoard
from repro.experiments.runner import build_cells, run_sweep

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection tests need the fork start method",
)

SMALL = baseline_config(
    num_transactions=60,
    warmup_commits=6,
    replications=2,
    arrival_rates=(40.0, 90.0),
    check_serializability=False,
)
PROTOCOLS = ["scc-2s", "occ-bc"]


def _kill_once(marker_path):
    """A hook that hard-kills the first host to claim anything."""

    def hook(cell, attempt):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return  # somebody already died for the cause
        os.close(fd)
        os._exit(13)  # SIGKILL-style: no cleanup, no board updates

    return hook


def test_hard_killed_worker_is_bit_identical_to_serial(tmp_path):
    serial = run_sweep(PROTOCOLS, SMALL, executor="serial")
    events = []
    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=0.4,
        poll_seconds=0.01,
        max_attempts=3,
        fault_hook=_kill_once(str(tmp_path / "killed")),
    )
    survived = run_sweep(PROTOCOLS, SMALL, executor=executor, on_event=events.append)
    for name in serial:
        assert serial[name].replications == survived[name].replications
    kinds = [event.kind for event in events]
    assert kinds.count("worker_lost") == 1
    assert kinds.count("cell_retried") >= 1
    # The dead host was replaced: more starts than the configured two.
    assert kinds.count("worker_started") == 3
    lost = next(e for e in events if e.kind == "worker_lost")
    assert lost.payload["exitcode"] == 13
    retried = next(e for e in events if e.kind == "cell_retried")
    assert retried.payload["attempts"] == 1


def _child_pids():
    """PIDs of this process's unreaped children (zombies included)."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


@pytest.mark.skipif(
    not glob.glob("/proc/self/task/*/children"),
    reason="needs /proc to list child processes",
)
@pytest.mark.parametrize("killed", [False, True], ids=["clean", "host-killed"])
def test_run_reaps_every_host_and_reports_each_exit_once(tmp_path, killed):
    before = _child_pids()
    events = []
    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=0.4,
        poll_seconds=0.01,
        max_attempts=3,
        fault_hook=_kill_once(str(tmp_path / "killed")) if killed else None,
    )
    executor.lifecycle_hook = lambda kind, payload: events.append((kind, payload))
    cells = build_cells(["P"], [10.0, 20.0, 30.0, 40.0], 1)
    outcomes = executor.run(cells, lambda cell: cell.arrival_rate)
    assert [outcome.summary for outcome in outcomes] == [10.0, 20.0, 30.0, 40.0]
    started = {p["worker"]: p["pid"] for kind, p in events if kind == "worker_started"}
    assert _child_pids() - before == set()
    assert not set(started.values()) & _child_pids()
    ends = [
        (kind, p["worker"], p["exitcode"])
        for kind, p in events
        if kind in ("worker_stopped", "worker_lost")
    ]
    assert sorted(worker for _, worker, _ in ends) == sorted(started)
    assert all((kind == "worker_stopped") == (code == 0) for kind, _, code in ends)
    codes = sorted(code for _, _, code in ends)
    assert codes == ([0] * (len(started) - 1) + [13] if killed else [0, 0])


def test_keyboard_interrupt_in_a_host_exits_it_and_retries_its_cell(tmp_path):
    # The host prints the traceback and exits 1; it must never unwind out
    # of the fork into this test, whose code after run() runs only here.
    marker = str(tmp_path / "interrupted")
    after_run = tmp_path / "after-run"
    test_pid = os.getpid()

    def interrupt_once(cell, attempt):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return
        os.close(fd)
        raise KeyboardInterrupt

    events = []
    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=0.4,
        poll_seconds=0.01,
        max_attempts=3,
        fault_hook=interrupt_once,
    )
    executor.lifecycle_hook = lambda kind, payload: events.append((kind, payload))
    cells = build_cells(["P"], [10.0, 20.0, 30.0], 1)
    try:
        outcomes = executor.run(cells, lambda cell: cell.arrival_rate * 2)
        with open(after_run, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    finally:
        if os.getpid() != test_pid:
            os._exit(0)  # a host that escaped its fork ends here
    assert after_run.read_text() == f"{test_pid}\n"
    assert [outcome.summary for outcome in outcomes] == [20.0, 40.0, 60.0]
    lost = [p for kind, p in events if kind == "worker_lost"]
    assert [p["exitcode"] for p in lost] == [1]
    retried = [p for kind, p in events if kind == "cell_retried"]
    assert [p["attempts"] for p in retried] == [1]


def test_dropped_lease_is_reclaimed_by_another_host(tmp_path):
    # The first host to claim wedges (no heartbeat) long enough for its
    # lease to lapse; the cell must be handed to a second host.
    marker = str(tmp_path / "wedged")

    def wedge_once(cell, attempt):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return
        os.close(fd)
        time.sleep(0.6)  # >> lease_seconds: the lease drops silently

    events = []
    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=0.15,
        poll_seconds=0.01,
        max_attempts=3,
        fault_hook=wedge_once,
    )
    executor.lifecycle_hook = lambda kind, payload: events.append((kind, payload))
    cells = build_cells(["P"], [10.0, 20.0, 30.0], 1)
    outcomes = executor.run(cells, lambda cell: cell.arrival_rate * 2)
    assert [outcome.summary for outcome in outcomes] == [20.0, 40.0, 60.0]
    assert all(outcome.ok for outcome in outcomes)
    retried = [payload for kind, payload in events if kind == "cell_retried"]
    assert len(retried) == 1
    assert retried[0]["attempts"] == 1  # reclaimed as attempt 2
    # No host died: the wedged worker woke up and kept serving.
    assert not any(kind == "worker_lost" for kind, _ in events)


def test_retries_are_bounded_and_surface_as_worker_lost(tmp_path):
    # Every claim of cell 0 dies: the retry budget must run out and
    # produce an error outcome instead of looping forever.
    def kill_cell_zero(cell, attempt):
        if cell.index == 0:
            os._exit(13)

    events = []
    executor = DistributedSweepExecutor(
        workers=1,
        lease_seconds=0.15,
        poll_seconds=0.01,
        max_attempts=2,
        fault_hook=kill_cell_zero,
    )
    executor.lifecycle_hook = lambda kind, payload: events.append((kind, payload))
    cells = build_cells(["P"], [10.0, 20.0], 1)
    outcomes = executor.run(cells, lambda cell: cell.arrival_rate)
    assert not outcomes[0].ok
    assert outcomes[0].error.exc_type == "WorkerLost"
    assert "2 time(s)" in outcomes[0].error.message
    assert outcomes[1].ok and outcomes[1].summary == 20.0
    # Exactly max_attempts claims happened: one initial + one retry.
    retried = [payload for kind, payload in events if kind == "cell_retried"]
    assert len(retried) == 1
    assert len([k for k, _ in events if k == "worker_lost"]) == 2


def test_run_sweep_raises_on_an_exhausted_cell(tmp_path):
    def kill_first_cell(cell, attempt):
        if cell.index == 0:
            os._exit(13)

    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=0.15,
        poll_seconds=0.01,
        max_attempts=2,
        fault_hook=kill_first_cell,
    )
    with pytest.raises(SweepExecutionError, match="WorkerLost"):
        run_sweep(["scc-2s"], SMALL, executor=executor)


def test_deterministic_runner_errors_are_never_retried(tmp_path):
    # A runner exception is the *code's* fault: retrying cannot help and
    # would break parity with the serial executor. The touch-file proves
    # the cell ran exactly once.
    ran_marker = str(tmp_path / "cell-0-runs")

    def runner(cell):
        if cell.index == 0:
            with open(ran_marker, "a") as fh:
                fh.write("x\n")
            raise ValueError("deterministic failure")
        return cell.arrival_rate

    executor = DistributedSweepExecutor(workers=2, lease_seconds=5.0, poll_seconds=0.01)
    cells = build_cells(["P"], [10.0, 20.0], 1)
    outcomes = executor.run(cells, runner)
    assert not outcomes[0].ok
    assert outcomes[0].error.exc_type == "ValueError"
    assert outcomes[1].ok
    with open(ran_marker) as fh:
        assert fh.read() == "x\n"


def _corrupt_and_die(workdir, outcome):
    """A hook that fakes a damaged outcome for cell 0, then kills its host.

    On the first claim of cell 0 it marks the cell done on the board
    with ``outcome`` as its encoded result, as if the real one had been
    torn or bit-rotted; then it exits without cleanup.
    """

    def hook(cell, attempt):
        if cell.index != 0 or attempt != 1:
            return
        board = JobBoard(os.path.join(workdir, "board.sqlite"))
        board.complete(cell.index, outcome)
        board.close()
        os._exit(13)

    return hook


def test_corrupt_outcome_row_is_requeued_and_recomputed(tmp_path):
    # Worst-case corruption: the board says "done" but the cell's only
    # outcome is garbage. The parent must notice the outcome is
    # unreadable, requeue the cell, and recompute it.
    workdir = tmp_path / "work"
    cells = build_cells(["P"], [10.0, 20.0, 30.0], 1)
    events = []
    executor = DistributedSweepExecutor(
        workers=1,
        lease_seconds=5.0,
        poll_seconds=0.01,
        max_attempts=3,
        workdir=workdir,
        # A torn write: the JSON stops mid-key.
        fault_hook=_corrupt_and_die(
            str(workdir), '{"elapsed": 0.1, "error": null, "summa'
        ),
    )
    executor.lifecycle_hook = lambda kind, payload: events.append((kind, payload))
    outcomes = executor.run(cells, lambda cell: cell.arrival_rate * 2)
    assert [outcome.summary for outcome in outcomes] == [20.0, 40.0, 60.0]
    retried = [payload for kind, payload in events if kind == "cell_retried"]
    assert any(payload.get("corrupt") for payload in retried)
    # The caller-supplied workdir is preserved for post-mortems.
    assert (workdir / "board.sqlite").exists()


def test_corrupt_outcome_row_with_no_attempts_left_is_lost(tmp_path):
    # Same corruption, but on the cell's last allowed claim: recovery
    # must give up with a WorkerLost outcome rather than loop.
    workdir = tmp_path / "work"
    cells = build_cells(["P"], [10.0, 20.0], 1)
    executor = DistributedSweepExecutor(
        workers=1,
        lease_seconds=5.0,
        poll_seconds=0.01,
        max_attempts=1,
        workdir=workdir,
        fault_hook=_corrupt_and_die(str(workdir), "garbage"),
    )
    delivered = []
    outcomes = executor.run(
        cells, lambda cell: cell.arrival_rate,
        on_outcome=lambda outcome: delivered.append(outcome.cell.index),
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.exc_type == "WorkerLost"
    assert outcomes[1].ok and outcomes[1].summary == 20.0
    # Cell 0 is given up as soon as its damaged row is read (it finished
    # first), not only once the replacement host has drained the board.
    assert delivered == [0, 1]


def _claims_logged(log_path):
    """Claims recorded so far by :func:`_slow_sweep`'s hook."""
    try:
        with open(log_path) as fh:
            return len(fh.readlines())
    except FileNotFoundError:
        return 0


def _slow_sweep(workdir, log_path):
    """Child body: a sweep of slow cells whose parent is about to die.

    Its fault hook logs every claim as it lands (the hook runs in the
    host right after each claim).
    """

    def log_claim(cell, attempt):
        with open(log_path, "a") as fh:
            fh.write(f"{cell.index}\n")

    def slow(cell):
        time.sleep(0.05)
        return cell.arrival_rate

    executor = DistributedSweepExecutor(
        workers=2, lease_seconds=5.0, poll_seconds=0.01, workdir=workdir,
        fault_hook=log_claim,
    )
    executor.run(build_cells(["P"], [float(rate) for rate in range(1, 201)], 1),
                 slow)
    os._exit(0)


def _kill_after_two_claims(workdir, log_path):
    """Run :func:`_slow_sweep` in a forked child; SIGKILL it once hosts claim."""
    parent = multiprocessing.get_context("fork").Process(
        target=_slow_sweep, args=(workdir, log_path)
    )
    parent.start()
    try:
        deadline = time.monotonic() + 30.0
        while _claims_logged(log_path) < 2:
            if time.monotonic() > deadline:
                pytest.fail("the sweep never started claiming")
            time.sleep(0.02)
    finally:
        os.kill(parent.pid, signal.SIGKILL)
        parent.join()


def test_hosts_stop_claiming_once_the_parent_is_killed(tmp_path):
    # 200 cells of 50 ms on two hosts take ~5 s. Killing the sweep's
    # parent must stop the hosts within a cell, not leave them draining
    # the grid (and the board) for nobody.
    log_path = str(tmp_path / "claims.log")
    _kill_after_two_claims(str(tmp_path / "work"), log_path)
    time.sleep(1.0)  # hosts finish the cell in hand and notice
    settled = _claims_logged(log_path)
    time.sleep(1.0)
    assert _claims_logged(log_path) == settled
    assert settled < 200
    # A caller's workdir is kept for post-mortems, parent killed or not.
    assert (tmp_path / "work" / "board.sqlite").is_file()


def test_killed_sweep_leaves_no_temp_workdir(tmp_path, monkeypatch):
    # With no workdir given the executor makes a temp dir, which only
    # the parent's cleanup used to remove: the orphaned hosts remove it.
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))  # forked along
    _kill_after_two_claims(None, str(tmp_path / "claims.log"))
    deadline = time.monotonic() + 5.0
    while list(temp_root.glob("repro-distributed-*")):
        if time.monotonic() > deadline:
            pytest.fail("the killed sweep's temp workdir is still there")
        time.sleep(0.05)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to list descriptors"
)
def test_each_host_holds_one_descriptor_per_board_file(tmp_path):
    # A host forked while the parent's board connection is open inherits
    # the parent's descriptors on the board and its WAL besides its own.
    log_path = tmp_path / "descriptors.jsonl"

    def count_board_descriptors(cell, attempt):
        counts = {}
        for fd in os.listdir("/proc/self/fd"):
            try:
                name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:
                continue  # the descriptor listdir itself used
            if name.startswith("board.sqlite"):
                counts[name] = counts.get(name, 0) + 1
        with open(log_path, "a") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "counts": counts}) + "\n")

    def slow(cell):
        time.sleep(0.02)
        return cell.arrival_rate

    executor = DistributedSweepExecutor(
        workers=2, lease_seconds=5.0, poll_seconds=0.01,
        workdir=tmp_path / "work", fault_hook=count_board_descriptors,
    )
    executor.run(build_cells(["P"], [float(rate) for rate in range(1, 9)], 1), slow)
    first_claims = {}
    for line in log_path.read_text().splitlines():
        entry = json.loads(line)
        first_claims.setdefault(entry["pid"], entry["counts"])
    assert first_claims
    one_each = {"board.sqlite": 1, "board.sqlite-wal": 1, "board.sqlite-shm": 1}
    assert all(counts == one_each for counts in first_claims.values()), first_claims


def test_each_host_opens_one_board_connection(tmp_path, monkeypatch):
    # The heartbeat thread shares its host's connection instead of
    # opening one per claimed cell.  The counting connect is inherited
    # across fork; each host reads its own count from the fault hook.
    opened = []
    connect = sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        opened.append((os.getpid(), os.path.basename(database)))
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    log_path = tmp_path / "connections.jsonl"

    def count_board_connections(cell, attempt):
        mine = opened.count((os.getpid(), "board.sqlite"))
        with open(log_path, "a") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "opened": mine}) + "\n")

    def slow(cell):
        time.sleep(0.02)
        return cell.arrival_rate

    executor = DistributedSweepExecutor(
        workers=2, lease_seconds=5.0, poll_seconds=0.01,
        workdir=tmp_path / "work", fault_hook=count_board_connections,
    )
    executor.run(build_cells(["P"], [float(rate) for rate in range(1, 9)], 1), slow)
    claims = {}
    for line in log_path.read_text().splitlines():
        entry = json.loads(line)
        claims.setdefault(entry["pid"], []).append(entry["opened"])
    # 8 cells on 2 hosts: one of them claimed at least 4.
    assert max(len(counts) for counts in claims.values()) >= 3, claims
    assert all(counts == [1] * len(counts) for counts in claims.values()), claims
