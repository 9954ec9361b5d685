"""Unit tests for the access index and conflict table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.conflict_table import AccessIndex, ConflictRecord, ConflictTable
from repro.errors import InvariantViolation


class TestConflictTable:
    def test_record_new_writer(self):
        table = ConflictTable()
        assert table.record(writer=5, page=10, position=3)
        assert 5 in table
        assert table.blocking_point(5) == 3
        assert table.records() == [ConflictRecord(writer=5, first_pos=3)]
        assert table.blocking_point(6) is None

    def test_merge_earlier_page_moves_blocking_point(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        assert table.record(5, page=11, position=1)  # Figure 5/6 situation
        assert table.blocking_point(5) == 1

    def test_later_page_of_known_writer_is_not_a_change(self):
        # A new page read after the blocking point moves nothing a shadow
        # or LBFO depends on, so it must not trigger a speculation rebuild.
        table = ConflictTable()
        table.record(5, page=10, position=3)
        assert not table.record(5, page=11, position=4)
        assert not table.record(5, page=12, position=3)
        assert table.blocking_point(5) == 3

    def test_duplicate_page_is_noop(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        assert not table.record(5, page=10, position=3)
        assert not table.record(5, page=10, position=7)  # later pos ignored

    def test_records_sorted_by_first_position(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        table.record(6, page=11, position=1)
        table.record(7, page=12, position=2)
        assert [r.writer for r in table.records()] == [6, 7, 5]

    def test_remove_writer(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        table.remove_writer(5)
        assert 5 not in table
        assert len(table) == 0
        table.remove_writer(5)  # idempotent


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("record"),
                st.integers(min_value=0, max_value=5),  # writer
                st.integers(min_value=0, max_value=12),  # position
            ),
            st.tuples(
                st.just("remove"),
                st.integers(min_value=0, max_value=5),
                st.just(0),
            ),
        ),
        max_size=60,
    )
)
def test_conflict_table_matches_minimum_position_model(ops):
    """The table behaves as a dict of each writer's minimum position."""
    table = ConflictTable()
    model: dict[int, int] = {}
    for kind, writer, position in ops:
        if kind == "record":
            moves = writer not in model or position < model[writer]
            assert table.record(writer, page=position, position=position) == moves
            if moves:
                model[writer] = position
        else:
            assert table.remove_writer(writer) == (writer in model)
            model.pop(writer, None)
        assert len(table) == len(model)
        assert table.writers() == list(model)
        assert all((writer in table) == (writer in model) for writer in range(6))
        lbfo = [writer for _, writer in sorted((p, w) for w, p in model.items())]
        assert table.earliest(0) == []
        assert table.earliest(1) == lbfo[:1]
        assert table.earliest(2) == lbfo[:2]
        assert table.earliest(None) == lbfo
        assert [(r.writer, r.first_pos) for r in table.records()] == [
            (writer, model[writer]) for writer in lbfo
        ]


class TestAccessIndex:
    def test_read_and_write_tracking(self):
        index = AccessIndex()
        index.add_read(1, page=10, position=2)
        index.add_write(2, page=10)
        assert index.readers_of(10) == {1}
        assert index.writers_view(10) == {2}
        assert index.written_by(2) == {10}
        assert index.writes_page(2, 10)
        assert not index.writes_page(1, 10)
        assert index.first_read_position(1, 10) == 2

    def test_first_read_position_keeps_minimum(self):
        index = AccessIndex()
        index.add_read(1, page=10, position=5)
        index.add_read(1, page=10, position=2)
        index.add_read(1, page=10, position=9)
        assert index.first_read_position(1, 10) == 2

    def test_unknown_read_position_raises(self):
        index = AccessIndex()
        with pytest.raises(InvariantViolation):
            index.first_read_position(1, 10)

    def test_remove_txn_cleans_both_sides(self):
        index = AccessIndex()
        index.add_read(1, 10, 0)
        index.add_write(1, 11)
        index.add_read(2, 10, 1)
        index.remove_txn(1)
        assert index.readers_of(10) == {2}
        assert not index.writers_view(11)
        assert index.written_by(1) == set()
        index.remove_txn(1)  # idempotent
