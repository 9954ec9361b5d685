"""Conflict-serializability oracle.

Builds the precedence (serialization) graph of a committed history from the
versioned read/write footprints and checks it is acyclic.  Edge rules, for
pages carrying monotone version counters:

* **write-read**: reader observed version ``v > 0`` ⇒ edge
  ``installer(p, v) -> reader``.
* **write-write**: edge ``installer(p, v) -> installer(p, v+1)``.
* **read-write**: reader observed version ``v`` ⇒ edge
  ``reader -> installer(p, v+1)`` (the reader serializes before the next
  writer of the page).

Every protocol in the library must produce acyclic graphs on every
workload; the test suite checks this property with randomized and
hypothesis-generated workloads.  A run's history answers the check from
its commit-order witness (every edge then points forward in commit
order); the graph serves every other history.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.analysis.history import History
from repro.errors import InvariantViolation


def precedence_graph(history: History) -> dict[int, set[int]]:
    """Build the precedence graph of a committed history.

    Returns:
        Adjacency ``{txn_id: successor txn_ids}`` with one key per
        committed transaction (an empty set when it precedes no one).

    Raises:
        InvariantViolation: If two commits installed one page version, or
            a commit read a version no committed transaction installed.
    """
    if history.duplicate_install is not None:
        page, version = history.duplicate_install
        raise InvariantViolation(
            f"two transactions installed version {version} of page {page}"
        )
    installer = history.installer_of
    graph: dict[int, set[int]] = {txn.txn_id: set() for txn in history}
    for txn in history:
        txn_id = txn.txn_id
        # write-read and read-write edges.
        for page, version in txn.reads.items():
            if version > 0:
                writer = installer(page, version)
                if writer is None:
                    raise InvariantViolation(
                        f"T{txn_id} read version {version} of page {page}, "
                        f"which no committed transaction installed"
                    )
                if writer != txn_id:
                    graph[writer].add(txn_id)
            next_writer = installer(page, version + 1)
            if next_writer is not None and next_writer != txn_id:
                graph[txn_id].add(next_writer)
        # write-write edges between consecutive versions.
        for page, version in txn.writes.items():
            next_writer = installer(page, version + 1)
            if next_writer is not None and next_writer != txn_id:
                graph[txn_id].add(next_writer)
    return graph


def _topological_order(graph: dict[int, set[int]]) -> Optional[list[int]]:
    """Kahn's algorithm, smallest ready id first; ``None`` on a cycle."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    return order if len(order) == len(graph) else None


def check_serializable(history: History) -> bool:
    """Whether the committed history is conflict-serializable.

    A history whose commit-order witness holds
    (:attr:`~repro.analysis.history.History.in_commit_order`) is
    serializable in commit order; any other history builds the
    precedence graph.
    """
    if history.in_commit_order:
        return True
    return _topological_order(precedence_graph(history)) is not None


def serialization_order(history: History) -> Optional[list[int]]:
    """A topological serialization order, or ``None`` if the graph is cyclic.

    Nodes are ordered by a deterministic topological sort (ties broken by
    transaction id) so tests can assert on concrete orders.
    """
    return _topological_order(precedence_graph(history))
