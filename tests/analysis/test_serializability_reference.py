"""The serializability oracle agrees with networkx on random histories.

networkx is not a dependency of the library; it serves here only as an
independent reference for the cycle check and the tie-broken
topological order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.history import History
from repro.analysis.serializability import (
    check_serializable,
    precedence_graph,
    serialization_order,
)

nx = pytest.importorskip("networkx")

NUM_PAGES = 4


@st.composite
def histories(draw):
    """Valid committed histories over a few pages, cyclic ones included.

    Each page gets a chain of distinct installers for versions 1..k, and
    every transaction reads any version that exists, so read-write edges
    freely point backwards and close cycles.
    """
    txn_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    writes = {txn: {} for txn in txn_ids}
    versions = {}
    for page in range(NUM_PAGES):
        installers = draw(
            st.lists(st.sampled_from(txn_ids), unique=True, max_size=len(txn_ids))
        )
        for version, txn in enumerate(installers, start=1):
            writes[txn][page] = version
        versions[page] = len(installers)
    history = History()
    for position, txn in enumerate(txn_ids):
        pages = draw(
            st.lists(st.integers(0, NUM_PAGES - 1), unique=True, max_size=NUM_PAGES)
        )
        reads = {
            page: draw(st.integers(min_value=0, max_value=versions[page]))
            for page in pages
        }
        history.record(txn, float(position), reads=reads, writes=writes[txn])
    return history


def reference_graph(graph):
    reference = nx.DiGraph()
    reference.add_nodes_from(graph)
    reference.add_edges_from(
        (node, successor)
        for node, successors in graph.items()
        for successor in successors
    )
    return reference


@given(history=histories())
@settings(max_examples=300, deadline=None)
def test_oracle_matches_networkx(history):
    graph = precedence_graph(history)
    assert set(graph) == {txn.txn_id for txn in history}
    reference = reference_graph(graph)
    acyclic = nx.is_directed_acyclic_graph(reference)
    assert check_serializable(history) == acyclic
    expected = (
        list(nx.lexicographical_topological_sort(reference)) if acyclic else None
    )
    assert serialization_order(history) == expected


def test_generator_reaches_cyclic_histories():
    # Guard against a strategy that only ever yields serializable
    # histories, which would make the comparison above one-sided.
    seen = set()

    @given(history=histories())
    @settings(max_examples=200, deadline=None)
    def collect(history):
        seen.add(check_serializable(history))

    collect()
    assert seen == {True, False}
