"""Shadow replacement policies (paper §2.1).

SCC-kS allows at most ``k-1`` speculative shadows per transaction, so when
more conflicts develop than the budget covers, a policy picks which
conflicts *get* shadows.  The paper adopts **LBFO** (Latest-Blocked-First-
Out): keep shadows for the conflicts with the earliest blocking points,
replacing the shadow with the latest blocking point when a newly detected
conflict blocks earlier (Figure 6).  It also notes that "information about
deadlines and priorities of the conflicting transactions can be utilized so
as to account for the most probable serialization orders" — the deadline-
and value-aware policies implement that remark and are compared in the
replacement ablation (DESIGN.md A3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.core.conflict_table import ConflictRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime


class ReplacementPolicy(ABC):
    """Chooses which conflicts a transaction's shadow budget covers.

    Attributes
    ----------
    name : str
        Registry/display name of the policy.
    time_invariant : bool
        ``True`` when :meth:`order` depends only on the conflict records
        and static transaction attributes — never on the current simulated
        time.  The SCC commit path uses this to skip provably no-op
        speculation rebuilds; policies whose ordering can drift over time
        (e.g. value functions decaying past deadlines) must leave it
        ``False``.
    """

    name: str = "abstract"
    time_invariant: bool = False

    @abstractmethod
    def order(
        self,
        runtime: "SCCTxnRuntime",
        records: list[ConflictRecord],
        protocol: "SCCProtocolBase",
        now: float,
    ) -> list[ConflictRecord]:
        """Return ``records`` sorted most-worth-covering first."""

    def select(
        self,
        runtime: "SCCTxnRuntime",
        records: list[ConflictRecord],
        budget: int | None,
        protocol: "SCCProtocolBase",
        now: float,
    ) -> list[ConflictRecord]:
        """The conflicts to cover given the shadow ``budget`` (None = all)."""
        ordered = self.order(runtime, records, protocol, now)
        if budget is None:
            return ordered
        return ordered[: max(budget, 0)]


class LatestBlockedFirstOut(ReplacementPolicy):
    """Keep the earliest blocking points (the paper's LBFO policy).

    SCC-kS does not call this policy on its rebuild path: the choice is
    :meth:`ConflictTable.earliest <repro.core.conflict_table.ConflictTable.earliest>`,
    the same ``(first_pos, writer)`` order selected without a sort.
    """

    name = "lbfo"
    time_invariant = True

    def order(self, runtime, records, protocol, now):
        """Sort by ``(first_pos, writer)`` — earliest blocking point first."""
        return sorted(records, key=lambda r: (r.first_pos, r.writer))


class DeadlineAwareReplacement(ReplacementPolicy):
    """Cover conflicts with the most urgent writers first.

    A writer with an earlier deadline is the most likely next committer
    under EDF scheduling pressure, so its conflict is the serialization
    order most worth speculating on.
    """

    name = "deadline"
    time_invariant = True  # deadlines are static per transaction

    def order(self, runtime, records, protocol, now):
        """Sort by the conflicting writer's (static) deadline, EDF-style."""
        def key(record: ConflictRecord):
            writer = protocol.runtime_of(record.writer)
            deadline = writer.spec.deadline if writer else float("inf")
            return (deadline, record.first_pos, record.writer)

        return sorted(records, key=key)


class ValueAwareReplacement(ReplacementPolicy):
    """Cover conflicts with the most valuable writers first.

    Mirrors the shadow-adoption-probability reasoning of §3.2: shadows
    accounting for conflicts with higher-valued transactions are more
    likely to be adopted, so they deserve the budget.
    """

    name = "value"
    # NOT time_invariant: value functions decay with simulated time, so the
    # ordering can change between rebuilds even with unchanged conflicts —
    # its coverage depends on *when* rebuilds run, not only on the table.

    def order(self, runtime, records, protocol, now):
        """Sort by the writer's value *at the current time*, highest first."""
        def key(record: ConflictRecord):
            writer = protocol.runtime_of(record.writer)
            value = writer.spec.value_function(now) if writer else 0.0
            return (-value, record.first_pos, record.writer)

        return sorted(records, key=key)
