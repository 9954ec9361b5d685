"""Unit tests for the serializability oracle."""

import pytest

from repro.analysis.history import History
from repro.analysis.serializability import (
    check_serializable,
    precedence_graph,
    serialization_order,
)
from repro.errors import InvariantViolation


def test_serial_history_is_serializable():
    history = History()
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    history.record(2, 2.0, reads={0: 1}, writes={0: 2})
    assert check_serializable(history)
    assert serialization_order(history) == [1, 2]


def test_write_read_edge():
    history = History()
    history.record(1, 1.0, reads={}, writes={7: 1})
    history.record(2, 2.0, reads={7: 1}, writes={})
    graph = precedence_graph(history)
    assert 2 in graph[1]


def test_read_write_edge():
    history = History()
    # T2 read version 0 of page 7; T1 installed version 1 -> T2 before T1.
    history.record(1, 1.0, reads={}, writes={7: 1})
    history.record(2, 2.0, reads={7: 0}, writes={})
    graph = precedence_graph(history)
    assert 1 in graph[2]


def test_write_write_edge():
    history = History()
    history.record(1, 1.0, reads={}, writes={3: 1})
    history.record(2, 2.0, reads={}, writes={3: 2})
    graph = precedence_graph(history)
    assert 2 in graph[1]


def test_cyclic_history_detected():
    history = History()
    # Classic non-serializable interleaving: each read the initial version
    # of the page the other wrote.
    history.record(1, 1.0, reads={0: 0, 1: 0}, writes={0: 1})
    history.record(2, 2.0, reads={1: 0, 0: 0}, writes={1: 1})
    assert not check_serializable(history)
    assert serialization_order(history) is None


def test_read_of_uninstalled_version_rejected():
    history = History()
    history.record(1, 1.0, reads={0: 5}, writes={})
    with pytest.raises(InvariantViolation):
        precedence_graph(history)


def test_double_install_rejected():
    history = History()
    history.record(1, 1.0, reads={}, writes={0: 1})
    history.record(2, 2.0, reads={}, writes={0: 1})
    with pytest.raises(InvariantViolation):
        precedence_graph(history)


def test_self_edges_ignored():
    history = History()
    # T1 reads the version it will overwrite: no self-edge, serializable.
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    assert check_serializable(history)
    graph = precedence_graph(history)
    assert 1 not in graph[1]


def test_three_way_cycle_detected():
    history = History()
    history.record(1, 1.0, reads={0: 0}, writes={1: 1})
    history.record(2, 2.0, reads={1: 0}, writes={2: 1})
    history.record(3, 3.0, reads={2: 0}, writes={0: 1})
    # read-write edges (reader before next installer): T1->T3 (page 0),
    # T2->T1 (page 1), T3->T2 (page 2) — a three-cycle.
    assert not check_serializable(history)
