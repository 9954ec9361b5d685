"""Unit tests for shadow replacement policies."""

from repro.core.conflict_table import ConflictRecord
from repro.core.replacement import (
    DeadlineAwareReplacement,
    LatestBlockedFirstOut,
    ValueAwareReplacement,
)
from repro.core.scc_ks import SCCkS
from tests.conftest import R, W, build_system
from tests.conftest import make_class


def records(*pairs):
    return [ConflictRecord(writer=w, first_pos=p) for w, p in pairs]


def protocol_with_writers(deadlines_values):
    """An SCCkS protocol with active writer runtimes for policy lookups.

    deadlines_values: list of (deadline, value) per writer (txn ids 0..n-1).
    """
    from repro.txn.spec import TransactionSpec

    protocol = SCCkS(k=3)
    specs = [
        TransactionSpec.build(
            txn_id=i,
            arrival=0.0,
            steps=[W(i), R(10 + i)],
            txn_class=make_class(num_steps=2, value=value),
            step_duration=1.0,
            deadline=deadline,
        )
        for i, (deadline, value) in enumerate(deadlines_values)
    ]
    system = build_system(protocol, num_pages=64)
    system.load_workload(specs)
    system.sim.run(until=0.1)  # arrivals processed, nothing committed
    return protocol


def test_lbfo_orders_by_first_position():
    policy = LatestBlockedFirstOut()
    ordered = policy.order(None, records((5, 3), (6, 1), (7, 2)), None, 0.0)
    assert [r.writer for r in ordered] == [6, 7, 5]


def test_lbfo_ties_break_by_writer_id():
    policy = LatestBlockedFirstOut()
    ordered = policy.order(None, records((9, 1), (4, 1)), None, 0.0)
    assert [r.writer for r in ordered] == [4, 9]


def test_lbfo_select_respects_budget():
    policy = LatestBlockedFirstOut()
    recs = records((5, 3), (6, 1), (7, 2))
    assert [r.writer for r in policy.select(None, recs, 2, None, 0.0)] == [6, 7]
    assert [r.writer for r in policy.select(None, recs, None, None, 0.0)] == [6, 7, 5]
    assert policy.select(None, recs, 0, None, 0.0) == []


def test_deadline_aware_prefers_urgent_writers():
    protocol = protocol_with_writers([(9.0, 1.0), (3.0, 1.0), (6.0, 1.0)])
    policy = DeadlineAwareReplacement()
    ordered = policy.order(None, records((0, 1), (1, 1), (2, 1)), protocol, 0.0)
    assert [r.writer for r in ordered] == [1, 2, 0]


def test_value_aware_prefers_valuable_writers():
    protocol = protocol_with_writers([(9.0, 1.0), (9.0, 5.0), (9.0, 3.0)])
    policy = ValueAwareReplacement()
    ordered = policy.order(None, records((0, 1), (1, 1), (2, 1)), protocol, 0.0)
    assert [r.writer for r in ordered] == [1, 2, 0]


def test_policies_handle_departed_writers():
    protocol = protocol_with_writers([(9.0, 1.0)])
    policy = DeadlineAwareReplacement()
    ordered = policy.order(None, records((0, 2), (99, 1)), protocol, 0.0)
    # Unknown writer 99 sorts last for deadline policy (infinite deadline).
    assert [r.writer for r in ordered] == [0, 99]


def test_lbfo_order_matches_conflict_table_sort():
    """Pin the coupling SCCkS._desired_coverage's fast path relies on.

    Under LBFO, SCC-kS takes its coverage from ConflictTable.earliest —
    a min, a bounded heap, or a cached sort by (first_pos, writer) — and
    skips the policy.  ConflictTable.records() is sorted by the same key.
    If either side's key ever changes, this test must fail before the
    fast path silently diverges from LatestBlockedFirstOut.select.
    """
    from repro.core.conflict_table import ConflictTable

    table = ConflictTable()
    # Deliberately adversarial insertion order: late positions first,
    # writer ids shuffled, one record's first_pos moved earlier, and a
    # position tie broken by writer id.
    for writer, page, pos in [
        (7, 3, 9), (2, 4, 1), (9, 5, 4), (2, 6, 5), (7, 7, 2), (5, 8, 2)
    ]:
        table.record(writer, page, pos)
    sorted_records = table.records()
    assert [(r.first_pos, r.writer) for r in sorted_records] == sorted(
        (r.first_pos, r.writer) for r in sorted_records
    )
    policy = LatestBlockedFirstOut()
    assert policy.order(None, sorted_records, None, 0.0) == sorted_records
    shuffled = sorted(sorted_records, key=lambda r: -r.writer)
    for budget in (1, 2, None):
        selected = policy.select(None, shuffled, budget, None, 0.0)
        assert table.earliest(budget) == [r.writer for r in selected]
