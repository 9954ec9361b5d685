"""Unit tests for the per-access rules of the two step loops.

The generic loop (:mod:`repro.protocols.base`, every non-SCC protocol)
and the SCC step loop (:mod:`repro.core.shadow_pool`) apply the same
rules to every serviced page access: the readset transition
(``record_access``), first-write-only writeset entries, the
program-exhaustion boundary and the stale-completion guard.
``select_replacement`` (:mod:`repro.core.scc_base`) is the Commit Rule's
promotion choice.
"""

from types import SimpleNamespace

from repro.core.scc_2s import SCC2S
from repro.core.scc_base import select_replacement
from repro.protocols.base import (
    Execution,
    ExecutionState,
    ReadRecord,
    record_access,
)
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.workloads.generator import fixed_workload
from tests.conftest import R, W, build_system, make_class


def shadow(pos, serial):
    return SimpleNamespace(pos=pos, serial=serial)


def one_transaction(steps):
    return fixed_workload(
        programs=[steps],
        arrivals=[0.0],
        txn_class=make_class(num_steps=len(steps)),
        step_duration=1.0,
    )


# ----------------------------------------------------------------------
# access bookkeeping
# ----------------------------------------------------------------------


def test_record_access_first_read_records_position():
    record = record_access(None, pos=3, version=7, now=1.5)
    assert record == ReadRecord(3, 7, 1.5)


def test_record_access_reread_keeps_first_position():
    first = record_access(None, pos=1, version=2, now=0.5)
    second = record_access(first, pos=6, version=9, now=2.0)
    assert second.position == 1  # first touch wins
    assert second.version == 9 and second.time == 2.0


def test_writeset_addition_only_first_write():
    # Page 1 is written at positions 0 and 2: only the first write enters
    # the writeset, on the generic loop (OCC-BC) and the SCC step loop
    # (SCC-2S) alike.
    for protocol in (OCCBroadcastCommit(), SCC2S()):
        system = build_system(protocol, num_pages=4)
        system.load_workload(one_transaction([W(1), R(0), W(1)]))
        seen = []
        install = system.commit

        def commit(execution, install=install, seen=seen):
            seen.append(dict(execution.writeset))
            install(execution)

        system.commit = commit
        system.run()
        assert seen == [{1: 0}], protocol.name
        scc_loop = getattr(protocol, "_driver", None) is not None
        assert scc_loop == isinstance(protocol, SCC2S), protocol.name


def test_program_exhausted_boundary():
    execution = Execution(one_transaction([R(0)] * 5)[0])
    for pos, done in ((4, False), (5, True), (6, True)):
        execution.pos = pos
        assert execution.done is done


def test_completion_is_stale_epoch_and_state():
    # A completion captured under an old epoch, or arriving while the
    # execution is not RUNNING, records nothing.
    system = build_system(OCCBroadcastCommit(), num_pages=4)
    protocol = system.protocol
    execution = Execution(one_transaction([R(0), R(1)])[0])
    execution.state = ExecutionState.RUNNING
    protocol._complete_step(execution, execution.epoch + 1)
    execution.state = ExecutionState.BLOCKED
    protocol._complete_step(execution, execution.epoch)
    assert execution.pos == 0 and execution.readset == {}


# ----------------------------------------------------------------------
# shadow selection
# ----------------------------------------------------------------------


def test_replacement_empty_is_none():
    assert select_replacement([], committer_id=9) is None


def test_replacement_prefers_latest_position():
    survivors = [(1, shadow(2, 0)), (2, shadow(6, 1))]
    assert select_replacement(survivors, committer_id=1) == survivors[1]


def test_replacement_prefers_committer_among_position_ties():
    survivors = [(1, shadow(4, 0)), (7, shadow(4, 1))]
    # Commit Rule case 1: the shadow hedging against the committer wins
    # even though the other was created first.
    assert select_replacement(survivors, committer_id=7) == survivors[1]


def test_replacement_final_tie_breaks_by_creation_order():
    survivors = [(2, shadow(4, 3)), (3, shadow(4, 1))]
    assert select_replacement(survivors, committer_id=9) == survivors[1]
