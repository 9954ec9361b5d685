"""Tests for the SQLite job board: the claim/lease/retry protocol."""

import multiprocessing
import os
import sqlite3
import time

import pytest

from repro._record import asdict
from repro.errors import ConfigurationError, ReproError
from repro.experiments.cli import main
from repro.experiments.board import decode_outcome, encode_outcome, lost_outcome
from repro.experiments.distributed import CELL_STATES, JobBoard
from repro.experiments.parallel import SweepCell
from repro.experiments.runner import build_cells
from tests.conftest import write_board_without_outcomes


@pytest.fixture
def board(tmp_path):
    board = JobBoard(tmp_path / "board.sqlite")
    yield board
    board.close()


def claim(board, worker, lease_seconds):
    """A sweep cell claim: ``(cell, attempt)``, or ``None``."""
    claimed = board.claim_payload(worker, lease_seconds)
    if claimed is None:
        return None
    _index, payload, attempt = claimed
    return SweepCell(**payload), attempt


def _populate(board, n=4):
    cells = build_cells(["P"], [float(10 * (i + 1)) for i in range(n)], 1)
    board.populate(cells)
    return cells


def test_claims_hand_out_cells_in_index_order(board):
    cells = _populate(board)
    seen = []
    while True:
        claimed = claim(board, "host-0", lease_seconds=30.0)
        if claimed is None:
            break
        cell, attempt = claimed
        assert attempt == 1
        seen.append(cell)
    assert seen == list(cells)
    assert board.counts() == {
        "pending": 0,
        "claimed": 4,
        "done": 0,
        "failed": 0,
    }


def test_claim_returns_none_on_an_empty_board(board):
    assert claim(board, "host-0", lease_seconds=30.0) is None


def test_populate_is_idempotent(board):
    cells = _populate(board)
    claim(board, "host-0", lease_seconds=30.0)
    board.complete(cells[0].index)
    board.populate(cells)  # a restarted parent re-populates harmlessly
    assert board.counts()["done"] == 1
    assert board.counts()["pending"] == 3


def test_complete_and_fail_are_terminal(board):
    cells = _populate(board, n=2)
    claim(board, "host-0", lease_seconds=30.0)
    claim(board, "host-0", lease_seconds=30.0)
    board.complete(cells[0].index)
    board.fail(cells[1].index)
    assert board.unfinished() == 0
    assert board.indexes_in_state("done") == {cells[0].index}
    assert board.indexes_in_state("failed") == {cells[1].index}
    # Neither is claimable again.
    assert claim(board, "host-1", lease_seconds=30.0) is None


def test_heartbeat_extends_only_the_holders_lease(board):
    cells = _populate(board, n=1)
    cell, _ = claim(board, "host-0", lease_seconds=0.2)
    assert board.heartbeat("host-0", cell.index, lease_seconds=60.0)
    # Another host (or a stale holder after reassignment) cannot extend.
    assert not board.heartbeat("host-1", cell.index, lease_seconds=60.0)
    # The extension actually stuck: the original 0.2 s lease would have
    # lapsed by now, but the cell stays claimed.
    time.sleep(0.25)
    retried, exhausted = board.expire_leases(max_attempts=3)
    assert retried == [] and exhausted == []
    assert board.indexes_in_state("claimed") == {cells[0].index}


def test_expired_lease_requeues_with_attempt_count(board):
    cells = _populate(board, n=1)
    claim(board, "host-0", lease_seconds=0.01)
    time.sleep(0.05)
    retried, exhausted = board.expire_leases(max_attempts=3)
    assert retried == [(cells[0].index, 1)]
    assert exhausted == []
    # The retry claims with attempt=2.
    cell, attempt = claim(board, "host-1", lease_seconds=30.0)
    assert cell == cells[0]
    assert attempt == 2


def test_release_takes_back_only_the_dead_hosts_cells(board):
    # A reaped host's lease need not lapse first: its cell goes back to
    # pending at once, and another host's lease is left alone.
    cells = _populate(board, n=2)
    claim(board, "host-0", lease_seconds=30.0)
    claim(board, "host-1", lease_seconds=30.0)
    retried, exhausted = board.release("host-0", max_attempts=3)
    assert (retried, exhausted) == ([(cells[0].index, 1)], [])
    assert board.indexes_in_state("pending") == {cells[0].index}
    assert board.indexes_in_state("claimed") == {cells[1].index}
    cell, attempt = claim(board, "host-2", lease_seconds=30.0)
    assert (cell, attempt) == (cells[0], 2)


def test_a_cell_at_the_ceiling_fails_with_worker_lost_in_its_row(board):
    # Lapsed or released, a cell out of attempts carries its WorkerLost
    # outcome in the row, so every reader decodes it like any other.
    cells = _populate(board, n=2)
    claim(board, "host-0", lease_seconds=0.01)
    claim(board, "host-1", lease_seconds=30.0)
    time.sleep(0.05)
    assert board.expire_leases(max_attempts=1) == ([], [(cells[0].index, 1)])
    assert board.release("host-1", max_attempts=1) == ([], [(cells[1].index, 1)])
    rows = board.finished_since(0)
    assert [row[1] for row in rows] == [cells[0].index, cells[1].index]
    for (_stamp, index, _attempts, encoded), cell in zip(rows, cells):
        outcome = decode_outcome(cell, encoded)
        assert outcome.cell == cell and not outcome.ok
        assert outcome.error.exc_type == "WorkerLost"
        assert "1 time(s)" in outcome.error.message


def test_lose_unfinished_fails_pending_and_claimed_cells(board):
    cells = _populate(board, n=3)
    claim(board, "host-0", lease_seconds=30.0)
    board.complete(cells[0].index, encode_outcome(lost_outcome(cells[0], 1)))
    claim(board, "host-0", lease_seconds=30.0)
    board.lose_unfinished()
    assert board.unfinished() == 0
    assert board.indexes_in_state("failed") == {cells[1].index, cells[2].index}
    assert board.indexes_in_state("done") == {cells[0].index}


def test_hosts_lists_each_live_host_with_the_cell_it_holds(board):
    cells = _populate(board, n=2)
    board.host_started("host-0", 101)
    board.host_started("host-1", 102)
    claim(board, "host-1", lease_seconds=30.0)
    [idle, busy] = board.hosts()
    assert idle == ("host-0", 101, None, None)
    assert busy[:3] == ("host-1", 102, cells[0].index)
    assert busy[3] > time.time() + 29.0
    board.host_stopped("host-1")
    assert board.hosts() == [idle]
    board.forget_hosts()
    assert board.hosts() == []


def test_attempt_ceiling_exhausts_the_cell(board):
    cells = _populate(board, n=1)
    for attempt in (1, 2):
        cell, got = claim(board, f"host-{attempt}", lease_seconds=0.01)
        assert got == attempt
        time.sleep(0.05)
        retried, exhausted = board.expire_leases(max_attempts=2)
        if attempt < 2:
            assert retried == [(cells[0].index, attempt)]
        else:
            assert retried == []
            assert exhausted == [(cells[0].index, 2)]
    assert board.indexes_in_state("failed") == {cells[0].index}
    assert board.unfinished() == 0


def _rows(board):
    """Every cell's ``(idx, state, outcome)``, read past the board API."""
    with sqlite3.connect(board.path) as conn:
        rows = conn.execute(
            "SELECT idx, state, outcome FROM cells ORDER BY idx"
        ).fetchall()
    conn.close()
    return rows


def test_requeue_forces_a_finished_cell_back_to_pending(board):
    cells = _populate(board, n=1)
    claim(board, "host-0", lease_seconds=30.0)
    board.complete(cells[0].index, "garbage")
    assert board.unfinished() == 0
    board.requeue(cells[0].index)  # the corruption-recovery path
    assert board.unfinished() == 1
    # The damaged outcome goes with the finish.
    assert _rows(board) == [(cells[0].index, "pending", None)]
    assert board.finished_since(0) == []
    cell, attempt = claim(board, "host-1", lease_seconds=30.0)
    assert cell == cells[0]
    assert attempt == 2  # the original claim still counts


def test_complete_and_fail_store_the_outcome_with_the_state(board):
    cells = _populate(board, n=3)
    for _ in cells:
        claim(board, "host-0", lease_seconds=30.0)
    board.complete(cells[0].index, '{"summary": 1}')
    board.fail(cells[1].index, '{"error": "x"}')
    assert _rows(board) == [
        (cells[0].index, "done", '{"summary": 1}'),
        (cells[1].index, "failed", '{"error": "x"}'),
        (cells[2].index, "claimed", None),
    ]
    assert board.finished_since(0) == [
        (1, cells[0].index, 1, '{"summary": 1}'),
        (2, cells[1].index, 1, '{"error": "x"}'),
    ]


def test_a_reader_sees_each_finish_exactly_once(board):
    cells = _populate(board, n=3)
    for _ in cells:
        claim(board, "host-0", lease_seconds=30.0)
    read = []
    stamp = 0

    def poll():
        nonlocal stamp
        for stamp, index, _attempts, outcome in board.finished_since(stamp):
            read.append((index, outcome))

    board.complete(cells[0].index, "a")
    board.complete(cells[1].index, "b")
    poll()
    poll()
    assert read == [(cells[0].index, "a"), (cells[1].index, "b")]
    # The most recently finished cell is requeued, as the parent does
    # with a damaged outcome, and finishes again: its stamp must still
    # move past everything already read.
    board.requeue(cells[1].index)
    poll()
    claimed, attempt = claim(board, "host-1", lease_seconds=30.0)
    assert (claimed, attempt) == (cells[1], 2)
    board.complete(cells[1].index, "b2")
    board.fail(cells[2].index, "c")
    poll()
    poll()
    assert read == [
        (cells[0].index, "a"),
        (cells[1].index, "b"),
        (cells[1].index, "b2"),
        (cells[2].index, "c"),
    ]


def test_a_board_without_outcome_columns_gains_them_on_open(tmp_path):
    path = tmp_path / "board.sqlite"
    cells = build_cells(["P"], [10.0, 20.0, 30.0], 1)
    write_board_without_outcomes(path, [asdict(c) for c in cells])
    board = JobBoard(path)
    try:
        for _ in cells:
            claim(board, "host-0", lease_seconds=30.0)
        board.complete(cells[0].index, "a")
        board.fail(cells[1].index, "b")
        board.requeue(cells[2].index)
        assert [row[1:] for row in board.finished_since(0)] == [
            (cells[0].index, 1, "a"),
            (cells[1].index, 1, "b"),
        ]
        assert board.counts()["pending"] == 1
    finally:
        board.close()
    JobBoard(path).close()  # a migrated board reopens without adding them again


def test_indexes_in_state_rejects_unknown_states(board):
    assert set(CELL_STATES) == {"pending", "claimed", "done", "failed"}
    with pytest.raises(ConfigurationError, match="unknown cell state"):
        board.indexes_in_state("lost")


# ----------------------------------------------------------------------
# multi-process claim race
# ----------------------------------------------------------------------


def _claim_all(path, worker, barrier, queue):
    board = JobBoard(path)
    barrier.wait()
    got = []
    while True:
        claimed = claim(board, worker, lease_seconds=30.0)
        if claimed is None:
            break
        got.append(claimed[0].index)
    board.close()
    queue.put((worker, got))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multi-process board test needs the fork start method",
)
def test_concurrent_hosts_claim_disjoint_cells(tmp_path):
    context = multiprocessing.get_context("fork")
    path = tmp_path / "board.sqlite"
    board = JobBoard(path)
    cells = _populate(board, n=24)
    barrier = context.Barrier(3)
    queue = context.Queue()
    procs = [
        context.Process(
            target=_claim_all, args=(str(path), f"host-{i}", barrier, queue)
        )
        for i in range(3)
    ]
    for proc in procs:
        proc.start()
    claims = {}
    for _ in procs:
        worker, got = queue.get(timeout=60)
        claims[worker] = got
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    claimed = [idx for got in claims.values() for idx in got]
    # Every cell went to exactly one host — the BEGIN IMMEDIATE claim
    # transaction never double-leases under contention.
    assert sorted(claimed) == [cell.index for cell in cells]
    assert len(set(claimed)) == len(cells)
    board.close()


def damage(path):
    """Persist a board, then overwrite every page after the schema page."""
    board = JobBoard(path)
    for index in range(64):
        board.add(index, {"pad": "x" * 256})
    board.close()
    with sqlite3.connect(path) as conn:
        [(page_size,)] = conn.execute("PRAGMA page_size").fetchall()
    conn.close()
    size = os.path.getsize(path)
    assert size > page_size
    with open(path, "r+b") as fh:
        fh.seek(page_size)
        fh.write(b"\xff" * (size - page_size))


def test_damaged_board_queries_raise_one_typed_error(tmp_path):
    path = tmp_path / "board.sqlite"
    damage(path)
    board = JobBoard(path)  # the schema page is intact, so it opens
    try:
        queries = [
            board.counts,
            board.unfinished,
            board.max_index,
            lambda: board.claim_payload("host-0", 30.0),
            lambda: board.indexes_in_state("pending"),
            lambda: board.populate(build_cells(["P"], [10.0], 1)),
        ]
        for query in queries:
            with pytest.raises(ReproError, match="damaged") as excinfo:
                query()
            assert str(path) in str(excinfo.value)
    finally:
        board.close()


def test_serve_on_a_damaged_board_exits_with_one_error_line(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    damage(workdir / "board.sqlite")
    with pytest.raises(SystemExit) as excinfo:
        main([
            "serve", "--store", str(tmp_path / "store.jsonl"),
            "--workdir", str(workdir), "--port", "0",
        ])
    message = str(excinfo.value)
    assert message.startswith("scc-experiments: error: job board ")
    assert str(workdir / "board.sqlite") in message
    assert "\n" not in message
