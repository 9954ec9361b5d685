"""Unit tests for the serializability oracle."""

import pytest

from repro.analysis import serializability
from repro.analysis.history import History
from repro.analysis.serializability import (
    check_serializable,
    precedence_graph,
    serialization_order,
)
from repro.errors import InvariantViolation
from repro.experiments.runner import run_instrumented
from repro.protocols.registry import available_protocols, protocol_spec
from repro.workloads.scenarios import get_scenario


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


@pytest.fixture
def graph_calls(monkeypatch):
    """Histories handed to ``precedence_graph`` by ``check_serializable``."""
    calls = []
    build = serializability.precedence_graph

    def spy(history):
        calls.append(history)
        return build(history)

    monkeypatch.setattr(serializability, "precedence_graph", spy)
    return calls


@pytest.mark.parametrize("num_servers", [None, 2])
@pytest.mark.parametrize("protocol", available_protocols())
def test_runs_answer_from_the_witness(protocol, num_servers, monkeypatch):
    # Every run's history satisfies the commit-order witness, so the
    # serializability check of a cell never builds the graph.
    def refuse(history):
        raise AssertionError("a run's history reached the precedence graph")

    monkeypatch.setattr(serializability, "precedence_graph", refuse)
    config = get_scenario("paper-baseline").to_config(
        num_transactions=150, warmup_commits=10, num_servers=num_servers
    )
    assert config.check_serializability
    summary, _ = run_instrumented(protocol_spec(protocol), config, arrival_rate=80.0)
    assert summary.committed == 140


def test_only_histories_failing_the_witness_reach_the_graph(graph_calls):
    in_order = History()
    in_order.record(1, 1.0, reads={0: 0}, writes={0: 1})
    in_order.record(2, 2.0, reads={0: 1}, writes={0: 2})
    stale = History()
    # T2 read version 0 of page 7 after T1 installed version 1: serializable
    # as T2, T1, which is not commit order.
    stale.record(1, 1.0, reads={}, writes={7: 1})
    stale.record(2, 2.0, reads={7: 0}, writes={})
    cyclic = History()
    cyclic.record(1, 1.0, reads={0: 0, 1: 0}, writes={0: 1})
    cyclic.record(2, 2.0, reads={1: 0, 0: 0}, writes={1: 1})
    assert in_order.in_commit_order
    assert not stale.in_commit_order and not cyclic.in_commit_order
    assert check_serializable(in_order) and check_serializable(stale)
    assert not check_serializable(cyclic)
    assert graph_calls == [stale, cyclic]


def test_repeated_txn_id_fails_the_witness(graph_calls):
    # Each read is the last installed version, but T1 commits on both
    # sides of T2: one graph node, edges T1->T2 and T2->T1.
    history = History()
    history.record(1, 1.0, reads={}, writes={0: 1})
    history.record(2, 2.0, reads={0: 1}, writes={1: 1})
    history.record(1, 3.0, reads={1: 1}, writes={})
    assert not history.in_commit_order
    assert not check_serializable(history)
    assert graph_calls == [history]
