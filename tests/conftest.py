"""Shared test fixtures and scenario-driving helpers.

The ``run_scenario`` helper is the workhorse of the protocol tests: it
builds a hand-crafted workload (explicit programs, arrivals, deadlines),
runs it under a given protocol with unit step time (1 second per page
access, zero I/O), and returns the finished system for inspection.  With
unit steps, commit times are small integers and scenario tests can assert
exact schedules — the paper's figures become executable.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.metrics.stats import MetricsCollector
from repro.protocols.base import CCProtocol
from repro.system.model import RTDBSystem
from repro.system.resources import InfiniteResources, ResourceManager
from repro.workloads.generator import fixed_workload
from repro.txn.spec import Step
from repro.values.classes import TransactionClass

#: The committed experiment specs: one per paper figure and ablation.
SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def make_class(
    name: str = "test",
    num_steps: int = 4,
    write_probability: float = 0.25,
    slack_factor: float = 2.0,
    value: float = 1.0,
    alpha_degrees: float = 45.0,
    weight: float = 1.0,
) -> TransactionClass:
    """A TransactionClass with convenient defaults for unit tests."""
    return TransactionClass(
        name=name,
        num_steps=num_steps,
        write_probability=write_probability,
        slack_factor=slack_factor,
        value=value,
        alpha_degrees=alpha_degrees,
        weight=weight,
    )


def R(page: int) -> Step:
    """A read step (test shorthand)."""
    return Step(page=page, is_write=False)


def W(page: int) -> Step:
    """A read-modify-write step (test shorthand)."""
    return Step(page=page, is_write=True)


def build_system(
    protocol: CCProtocol,
    num_pages: int = 64,
    step_time: float = 1.0,
    resources: Optional[ResourceManager] = None,
    warmup: int = 0,
) -> RTDBSystem:
    """An RTDBSystem with unit-time steps for deterministic scenarios."""
    return RTDBSystem(
        protocol=protocol,
        num_pages=num_pages,
        resources=resources or InfiniteResources(cpu_time=step_time, io_time=0.0),
        metrics=MetricsCollector(warmup_commits=warmup),
        record_history=True,
    )


def run_scenario(
    protocol: CCProtocol,
    programs: Sequence[Sequence[Step]],
    arrivals: Optional[Sequence[float]] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
    txn_class: Optional[TransactionClass] = None,
    num_pages: int = 64,
    step_time: float = 1.0,
    run: bool = True,
) -> RTDBSystem:
    """Run a hand-crafted scenario to completion and return the system."""
    if arrivals is None:
        arrivals = [0.0] * len(programs)
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals,
        txn_class=txn_class or make_class(num_steps=max(len(p) for p in programs)),
        step_duration=step_time,
        deadlines=deadlines,
    )
    system = build_system(protocol, num_pages=num_pages, step_time=step_time)
    system.load_workload(specs)
    if run:
        system.run()
    return system


def commit_time_of(system: RTDBSystem, txn_id: int) -> float:
    """Commit time of one transaction from the recorded history."""
    assert system.history is not None
    for committed in system.history:
        if committed.txn_id == txn_id:
            return committed.commit_time
    raise AssertionError(f"T{txn_id} never committed")


def commit_order(system: RTDBSystem) -> list[int]:
    """Transaction ids in commit order."""
    assert system.history is not None
    return [committed.txn_id for committed in system.history]


@pytest.fixture
def baseline_class() -> TransactionClass:
    """The paper's baseline transaction class (16 pages, 25% update)."""
    return make_class(
        name="baseline", num_steps=16, write_probability=0.25, slack_factor=2.0
    )


def register_family(monkeypatch, name: str, builder) -> None:
    """Register a parameterless protocol family for one test's duration.

    ``monkeypatch`` restores the registry afterwards.  Sweeps then name
    the family by its spec string ``name``; the process and distributed
    executors fork, so their workers inherit the registration.
    """
    from repro.protocols import registry

    family = registry.ProtocolFamily(name=name, builder=builder)
    monkeypatch.setitem(registry._REGISTRY, name, family)


def explode():
    """A protocol builder whose every cell fails."""
    raise RuntimeError("protocol cannot run")


def computed_cells(events) -> list[tuple]:
    """``(protocol, rate, replication)`` of the cells a sweep computed.

    ``events`` is what an ``on_event`` subscriber collected; store-served
    cells arrive as ``cell_outcome`` events with ``cached: true``.
    """
    return sorted(
        (
            event.payload["cell"]["protocol"],
            event.payload["cell"]["arrival_rate"],
            event.payload["cell"]["replication"],
        )
        for event in events
        if event.kind == "cell_outcome" and not event.payload["cached"]
    )


#: The job board's ``cells`` table as written before it stored outcomes.
BOARD_WITHOUT_OUTCOMES = """
CREATE TABLE IF NOT EXISTS cells (
    idx INTEGER PRIMARY KEY,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_expiry REAL,
    not_before REAL NOT NULL DEFAULT 0
);
"""


def write_board_without_outcomes(path, payloads, claimed=()) -> None:
    """Write a job board file in the format that predates stored outcomes.

    ``payloads[i]`` becomes cell ``i``: pending, or, for ``i`` in
    ``claimed``, leased for an hour to a host that died holding it.
    """
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript(BOARD_WITHOUT_OUTCOMES)
        conn.executemany(
            "INSERT INTO cells (idx, payload) VALUES (?, ?)",
            [(i, json.dumps(payload)) for i, payload in enumerate(payloads)],
        )
        conn.executemany(
            "UPDATE cells SET state = 'claimed', worker = 'gone', "
            "attempts = 1, lease_expiry = ? WHERE idx = ?",
            [(time.time() + 3600.0, i) for i in claimed],
        )
    conn.close()
