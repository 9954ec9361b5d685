"""Pure state-transition kernels shared by the two SCC step loops.

Every function here is a *kernel*: a side-effect-free computation that
maps plain values to plain values, with no simulator, system, or protocol
handle in sight.  The generic step loop (:mod:`repro.protocols.base`
plus the SCC hooks in :mod:`repro.core.scc_base`) and the fused
shadow-pool driver (:mod:`repro.engine.shadow_pool`) both drive their
state through these same functions, which is what makes "bit-identical
metrics on either path" a structural property instead of a testing
aspiration: a loop only decides *when* a kernel runs, never *what* it
computes.

The kernels fall into three groups:

* **Access bookkeeping** — :func:`record_access`,
  :func:`writeset_addition`, :func:`program_exhausted`,
  :func:`completion_is_stale`: the transitions of one page access through
  an execution's read/write sets (the hot path of
  :meth:`~repro.protocols.base.CCProtocol._complete_step`).
* **Shadow selection** — :func:`select_fork_donor`,
  :func:`select_replacement`: the deterministic shadow-choice rules of
  the SCC protocols (fork-donor choice and Commit Rule promotion).
* **Event ordering** — :func:`event_sort_position`,
  :func:`fires_before`: the ``(time, priority, sequence)`` total order
  the engine must realize, exposed so its bucketed dispatch can be
  property-tested against a plain sort by this key.

Randomness-consuming helpers are deliberately *not* kernels: they live
with the workload tensors (:mod:`repro.engine.array`), because consuming
an RNG stream is a side effect on the stream's state.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, TypeVar

__all__ = [
    "ReadRecord",
    "completion_is_stale",
    "event_sort_position",
    "fires_before",
    "program_exhausted",
    "record_access",
    "select_fork_donor",
    "select_replacement",
    "writeset_addition",
]


class ReadRecord(NamedTuple):
    """One page read performed by an execution.

    Attributes
    ----------
    position : int
        Program position of the (first) read of this page.
    version : int
        Committed page version observed.
    time : float
        Simulated time of the read.
    """

    position: int
    version: int
    time: float


# ----------------------------------------------------------------------
# access bookkeeping
# ----------------------------------------------------------------------


def record_access(
    prior: Optional[ReadRecord], pos: int, version: int, now: float
) -> ReadRecord:
    """The readset transition of one serviced page access.

    A first access records its own position; a re-access of a page
    (possible in hand-built programs) keeps the first position but
    observes the latest committed version and time.

    Parameters
    ----------
    prior : ReadRecord or None
        The existing readset entry for the page, if any.
    pos : int
        Program position of the access being recorded.
    version : int
        Committed page version observed by the access.
    now : float
        Simulated time of the access.

    Returns
    -------
    ReadRecord
        The readset entry to store for the page.
    """
    if prior is None:
        return ReadRecord(pos, version, now)
    return ReadRecord(prior[0], version, now)


def writeset_addition(is_write: bool, already_recorded: bool) -> bool:
    """Whether a serviced access adds a new writeset entry.

    Only the *first* write of a page is recorded (the writeset maps page
    to the program position of its write).

    Parameters
    ----------
    is_write : bool
        Whether the access is a read-modify-write.
    already_recorded : bool
        Whether the page is already in the execution's writeset.
    """
    return is_write and not already_recorded


def program_exhausted(pos: int, num_steps: int) -> bool:
    """Whether an execution at position ``pos`` has no steps left."""
    return pos >= num_steps


def completion_is_stale(
    current_epoch: int, captured_epoch: int, is_running: bool
) -> bool:
    """Whether a service-completion callback must be dropped.

    An execution bumps its epoch on every abort/block/resume, so a
    completion captured under an old epoch — or one arriving while the
    execution is not RUNNING — belongs to a dead service request.

    Parameters
    ----------
    current_epoch : int
        The execution's epoch at completion time.
    captured_epoch : int
        The epoch captured when the service was requested.
    is_running : bool
        Whether the execution is currently RUNNING.
    """
    return current_epoch != captured_epoch or not is_running


# ----------------------------------------------------------------------
# shadow selection (SCC fork-donor and promotion rules)
# ----------------------------------------------------------------------

_S = TypeVar("_S")


def select_fork_donor(donors: Sequence[_S]) -> Optional[_S]:
    """Pick the fork donor among valid candidate shadows.

    The *latest* donor wins — largest program position — with creation
    order (smallest ``serial``) as the deterministic tie-break.  Both
    step loops and every SCC variant share this rule, so shadow forks
    are reproducible on either path by construction.

    Parameters
    ----------
    donors : sequence
        Candidate shadows, each exposing ``pos`` and ``serial``.

    Returns
    -------
    The chosen donor, or ``None`` when there are no candidates.
    """
    if not donors:
        return None
    return max(donors, key=lambda s: (s.pos, -s.serial))


def select_replacement(
    survivors: Sequence[tuple[int, _S]], committer_id: int
) -> Optional[tuple[int, _S]]:
    """Pick the speculative shadow promoted by the Commit Rule.

    The latest position wins; among equals, the shadow that speculated on
    the committing transaction itself is preferred (Commit Rule case 1),
    then creation order (smallest ``serial``) breaks the remaining tie.

    Parameters
    ----------
    survivors : sequence of (writer, shadow)
        Live speculative shadows keyed by the conflicting writer each one
        hedges against; shadows expose ``pos`` and ``serial``.
    committer_id : int
        The transaction that just committed.

    Returns
    -------
    The chosen ``(writer, shadow)`` pair, or ``None`` when no speculative
    shadow survived (the transaction must restart from scratch).
    """
    if not survivors:
        return None

    def rank(item: tuple[int, _S]) -> tuple:
        writer, shadow = item
        return (shadow.pos, writer == committer_id, -shadow.serial)

    return max(survivors, key=rank)


# ----------------------------------------------------------------------
# event ordering
# ----------------------------------------------------------------------


def event_sort_position(
    time: float, priority: int, sequence: int
) -> tuple[float, int, int]:
    """The total-order key of one scheduled event.

    The engine fires events in ascending ``(time, priority, sequence)``
    order; the unique sequence number makes the order total, which is
    what makes whole simulation runs bit-for-bit reproducible.
    """
    return (time, priority, sequence)


def fires_before(
    a: tuple[float, int, int], b: tuple[float, int, int]
) -> bool:
    """Whether event key ``a`` fires strictly before event key ``b``."""
    return a < b
