"""SCC-kS: the k-shadow speculative protocol (paper §2.1).

At most ``k`` shadows exist per uncommitted transaction: one optimistic
shadow plus up to ``k-1`` speculative shadows.  Which of the transaction's
conflicts the speculative budget covers is decided by a
:class:`~repro.core.replacement.ReplacementPolicy` — LBFO by default, i.e.
the conflicts with the earliest blocking points win, and a newly detected
earlier conflict evicts the latest-blocked shadow (Figure 6).

``k`` may also be assigned *per transaction* via ``k_for``: the paper notes
that k "reflects the transaction's urgency ... and criticalness" and need
not be constant across transactions — this is the resources-for-timeliness
dial the ablation A1 sweeps.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.deferral import TerminationPolicy
from repro.core.replacement import LatestBlockedFirstOut, ReplacementPolicy
from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime
from repro.errors import ConfigurationError
from repro.protocols.ranges import check_shadow_budget
from repro.txn.spec import TransactionSpec


class SCCkS(SCCProtocolBase):
    """The k-shadow SCC algorithm.

    Parameters
    ----------
    k : int, optional
        Shadow budget per transaction (optimistic + ``k-1`` speculative).
        ``None`` means unlimited (conflict-based SCC).
    replacement : ReplacementPolicy, optional
        Policy selecting which conflicts get shadows.
    termination : TerminationPolicy, optional
        When finished shadows commit (immediate by default).
    k_for : Callable, optional
        Per-transaction budget override; receives the spec and returns
        that transaction's ``k`` (or ``None`` = unlimited).
    """

    name = "SCC-kS"

    def __init__(
        self,
        k: Optional[int] = 2,
        replacement: Optional[ReplacementPolicy] = None,
        termination: Optional[TerminationPolicy] = None,
        k_for: Optional[Callable[[TransactionSpec], Optional[int]]] = None,
    ) -> None:
        super().__init__(termination=termination)
        check_shadow_budget(k)
        self.k = k
        self.replacement = replacement or LatestBlockedFirstOut()
        self._coverage_time_invariant = getattr(
            self.replacement, "time_invariant", False
        )
        self._k_for = k_for
        if k is not None and k_for is None:
            self.name = f"SCC-{k}S" if k != 2 else "SCC-2S"

    def budget_for(self, txn: TransactionSpec) -> Optional[int]:
        """Speculative-shadow budget (``k-1``) for one transaction."""
        k = self._k_for(txn) if self._k_for is not None else self.k
        if k is None:
            return None
        if k < 1:
            raise ConfigurationError(
                f"per-transaction k must be >= 1 (got {k} for T{txn.txn_id})"
            )
        return k - 1

    def _desired_coverage(self, runtime: SCCTxnRuntime) -> list[int]:
        """Select the conflicts the shadow budget covers, most urgent first.

        Parameters
        ----------
        runtime : SCCTxnRuntime
            The transaction whose speculation is being rebuilt.

        Returns
        -------
        list of int
            Writer ids to keep speculative shadows for, in spawn order
            (read-only: under an unbounded LBFO budget it is the conflict
            table's cached order).
        """
        if self._k_for is None:
            # Static k (validated >= 1 at construction): skip the
            # per-call budget_for validation on the rebuild hot path.
            k = self.k
            budget = None if k is None else k - 1
        else:
            budget = self.budget_for(runtime.spec)
        if budget == 0:
            return []
        # LBFO ranks by the blocking point alone, which the conflict
        # table selects without sorting itself for a finite budget.
        if type(self.replacement) is LatestBlockedFirstOut:
            return runtime.conflicts.earliest(budget)
        records = runtime.conflicts.records()
        now = self.system.sim.now if self.system is not None else 0.0
        selected = self.replacement.select(runtime, records, budget, self, now)
        return [record.writer for record in selected]
