"""Property-based tests: every protocol serializes every workload.

Hypothesis generates small adversarial workloads (few pages, heavy
conflicts, staggered arrivals); each protocol must (1) commit every
transaction, (2) never commit a stale read (enforced by the system model),
and (3) produce a conflict-serializable history.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.serializability import check_serializable
from repro.core.scc_2s import SCC2S
from repro.core.scc_cb import SCCCB
from repro.core.scc_ks import SCCkS
from repro.core.scc_vw import SCCVW
from repro.protocols.occ import BasicOCC
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.protocols.serial import SerialExecution
from repro.protocols.twopl_pa import TwoPhaseLockingPA
from repro.protocols.wait50 import Wait50
from repro.workloads.generator import fixed_workload
from repro.txn.spec import Step
from tests.conftest import build_system, make_class

NUM_PAGES = 6  # tiny database -> maximal contention

PROTOCOL_FACTORIES = {
    "serial": SerialExecution,
    "occ": BasicOCC,
    "occ-bc": OCCBroadcastCommit,
    "wait50": Wait50,
    "2pl-pa": TwoPhaseLockingPA,
    "scc-2s": SCC2S,
    "scc-3s": lambda: SCCkS(k=3),
    "scc-cb": SCCCB,
    "scc-vw": lambda: SCCVW(period=0.3),
}


@st.composite
def workloads(draw):
    """A handful of transactions over a tiny page set."""
    num_txns = draw(st.integers(min_value=2, max_value=6))
    programs = []
    arrivals = []
    for _ in range(num_txns):
        length = draw(st.integers(min_value=1, max_value=5))
        pages = draw(
            st.lists(
                st.integers(min_value=0, max_value=NUM_PAGES - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        flags = draw(
            st.lists(st.booleans(), min_size=length, max_size=length)
        )
        programs.append(
            [Step(page=p, is_write=w) for p, w in zip(pages, flags)]
        )
        arrivals.append(
            draw(
                st.floats(
                    min_value=0.0,
                    max_value=4.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
        )
    return programs, arrivals


def run_workload(protocol_factory, programs, arrivals):
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals,
        txn_class=make_class(num_steps=max(len(p) for p in programs)),
        step_duration=1.0,
    )
    system = build_system(protocol_factory(), num_pages=NUM_PAGES)
    system.load_workload(specs)
    system.run(max_events=400_000)
    return system


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
@given(workload=workloads())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_protocol_serializes_every_workload(name, workload):
    programs, arrivals = workload
    system = run_workload(PROTOCOL_FACTORIES[name], programs, arrivals)
    assert system.committed_count == len(programs)
    assert check_serializable(system.history)


@given(workload=workloads())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scc_commits_match_serial_effects_structure(workload):
    # Same workload under SCC and Serial: both serializable, same set of
    # committed transactions, and the same *final database version count*
    # per page (every write installed exactly once).
    programs, arrivals = workload
    scc = run_workload(SCC2S, programs, arrivals)
    serial = run_workload(SerialExecution, programs, arrivals)
    assert scc.committed_count == serial.committed_count
    for page in range(NUM_PAGES):
        assert scc.db.version(page) == serial.db.version(page)
