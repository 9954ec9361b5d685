"""Unit tests for committed-history recording."""

from repro.analysis.history import History


def test_records_in_commit_order():
    history = History()
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    history.record(2, 2.0, reads={0: 1}, writes={})
    assert len(history) == 2
    assert [t.txn_id for t in history] == [1, 2]
    assert history.transactions[0].commit_time == 1.0


def test_installer_lookup():
    history = History()
    history.record(1, 1.0, reads={}, writes={5: 1})
    history.record(2, 2.0, reads={}, writes={5: 2})
    assert history.installer_of(5, 1) == 1
    assert history.installer_of(5, 2) == 2
    assert history.installer_of(5, 0) is None  # initial load
    assert history.installer_of(9, 1) is None


def test_records_are_snapshots():
    history = History()
    reads = {0: 0}
    history.record(1, 1.0, reads=reads, writes={})
    reads[0] = 99
    assert history.transactions[0].reads[0] == 0


def test_commit_order_witness():
    history = History()
    assert history.in_commit_order
    history.record(1, 1.0, reads={0: 0}, writes={0: 1, 3: 1})
    history.record(2, 2.0, reads={0: 1, 3: 1, 5: 0}, writes={3: 2})
    assert history.in_commit_order
    history.record(3, 3.0, reads={3: 1}, writes={})  # stale: v2 installed
    assert not history.in_commit_order
    history.record(4, 4.0, reads={3: 2}, writes={3: 3})
    assert not history.in_commit_order  # once broken, for good


def test_version_gap_fails_the_witness():
    history = History()
    history.record(1, 1.0, reads={}, writes={4: 2})
    assert not history.in_commit_order


def test_duplicate_install_is_noted():
    history = History()
    history.record(1, 1.0, reads={}, writes={0: 1})
    assert history.duplicate_install is None
    history.record(2, 2.0, reads={}, writes={0: 1})
    assert history.duplicate_install == (0, 1)
    assert history.installer_of(0, 1) == 1
    assert not history.in_commit_order
