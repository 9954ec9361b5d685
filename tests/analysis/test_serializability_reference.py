"""The serializability oracle agrees with networkx on random histories.

networkx is not a dependency of the library; it serves here only as an
independent reference for the cycle check and the tie-broken
topological order.  Histories recorded in commit order, with at most one
version perturbed, check the commit-order witness against the graph.
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


@st.composite
def ordered_histories(draw):
    """Histories recorded in commit order, with at most one perturbation.

    Unperturbed, each commit reads the last installed version of its pages
    and installs the next one, as a run records them.  A perturbation
    makes one read stale, one read a version a later commit installs, or
    swaps which of two commits installed consecutive versions of a page;
    each leaves at least one precedence edge pointing backward in commit
    order.

    Returns ``(history, txn_ids in commit order)``.
    """
    txn_ids = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)
    )
    last = dict.fromkeys(range(NUM_PAGES), 0)
    commits = []  # (txn, reads, writes) in commit order
    for txn in txn_ids:
        pages = st.lists(st.integers(0, NUM_PAGES - 1), unique=True, max_size=3)
        reads = {page: last[page] for page in draw(pages)}
        writes = {}
        for page in draw(pages):
            last[page] += 1
            writes[page] = last[page]
        commits.append((txn, reads, writes))
    installer = {
        (page, version): position
        for position, (_, _, writes) in enumerate(commits)
        for page, version in writes.items()
    }
    stale = [
        (position, page)
        for position, (_, reads, _) in enumerate(commits)
        for page, version in reads.items()
        if version > 0
    ]
    future = [
        (position, page)
        for position, (_, reads, _) in enumerate(commits)
        for page, version in reads.items()
        if installer.get((page, version + 1), position) > position
    ]
    swaps = [
        (page, version)
        for page, version in installer
        if (page, version + 1) in installer
    ]
    kinds = ["none"] + [
        kind
        for kind, sites in (("stale", stale), ("future", future), ("swap", swaps))
        if sites
    ]
    kind = draw(st.sampled_from(kinds))
    if kind == "stale":
        position, page = draw(st.sampled_from(stale))
        reads = commits[position][1]
        reads[page] = draw(st.integers(0, reads[page] - 1))
    elif kind == "future":
        position, page = draw(st.sampled_from(future))
        commits[position][1][page] += 1
    elif kind == "swap":
        page, version = draw(st.sampled_from(swaps))
        first = commits[installer[(page, version)]][2]
        second = commits[installer[(page, version + 1)]][2]
        first[page], second[page] = version + 1, version
    history = History()
    for position, (txn, reads, writes) in enumerate(commits):
        history.record(txn, float(position), reads=reads, writes=writes)
    return history, txn_ids


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


@given(case=ordered_histories())
@settings(max_examples=300, deadline=None)
def test_witness_holds_exactly_when_edges_point_forward(case):
    history, commit_order = case
    reference = reference_graph(precedence_graph(history))
    position = {txn: index for index, txn in enumerate(commit_order)}
    forward = all(position[u] < position[v] for u, v in reference.edges)
    assert history.in_commit_order == forward
    assert check_serializable(history) == nx.is_directed_acyclic_graph(reference)


def test_ordered_generator_reaches_every_verdict():
    # Both witness outcomes, and perturbed histories of both verdicts, so
    # the fast path and the graph are each compared above.
    seen = set()

    @given(case=ordered_histories())
    @settings(max_examples=300, deadline=None)
    def collect(case):
        history, _ = case
        seen.add((history.in_commit_order, check_serializable(history)))

    collect()
    assert seen == {(True, True), (False, True), (False, False)}


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
