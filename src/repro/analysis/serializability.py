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
hypothesis-generated workloads.
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
    """
    graph: dict[int, set[int]] = {}
    # Collect, per page, the installed versions and their writers, plus the
    # readers of each version.
    writers_by_page_version: dict[tuple[int, int], int] = {}
    readers_by_page_version: dict[tuple[int, int], list[int]] = {}
    for txn in history:
        graph.setdefault(txn.txn_id, set())
        for page, version in txn.writes.items():
            key = (page, version)
            if key in writers_by_page_version:
                raise InvariantViolation(
                    f"two transactions installed version {version} of page {page}"
                )
            writers_by_page_version[key] = txn.txn_id
        for page, version in txn.reads.items():
            readers_by_page_version.setdefault((page, version), []).append(txn.txn_id)

    # write-read and read-write edges.
    for (page, version), readers in readers_by_page_version.items():
        writer = writers_by_page_version.get((page, version))
        next_writer = writers_by_page_version.get((page, version + 1))
        for reader in readers:
            if version > 0:
                if writer is None:
                    raise InvariantViolation(
                        f"T{reader} read version {version} of page {page}, "
                        f"which no committed transaction installed"
                    )
                if writer != reader:
                    graph[writer].add(reader)
            if next_writer is not None and next_writer != reader:
                graph[reader].add(next_writer)

    # write-write edges between consecutive versions.
    for (page, version), writer in writers_by_page_version.items():
        next_writer = writers_by_page_version.get((page, version + 1))
        if next_writer is not None and next_writer != writer:
            graph[writer].add(next_writer)
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
    """Whether the committed history is conflict-serializable."""
    return _topological_order(precedence_graph(history)) is not None


def serialization_order(history: History) -> Optional[list[int]]:
    """A topological serialization order, or ``None`` if the graph is cyclic.

    Nodes are ordered by a deterministic topological sort (ties broken by
    transaction id) so tests can assert on concrete orders.
    """
    return _topological_order(precedence_graph(history))
