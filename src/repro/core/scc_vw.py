"""SCC-VW: Speculative Concurrency Control with Voted Waiting (§3.3).

The cheap approximation of SCC-DC's probabilistic Termination Rule, and
the SCC protocol the paper's value experiments (Figures 14-15) evaluate.
When an optimistic shadow ``T_o_u`` finishes, every *executing* transaction
``T_i`` that conflicts with it casts a commit vote:

* ``V_now = V_u(t) + V_i(t + E_Ci - ε_u_i)`` — commit ``T_o_u`` now; ``T_i``
  falls back to the shadow accounting for the conflict with ``T_u`` (its
  elapsed execution is ``ε_u_i``; with no such shadow it restarts from
  scratch, ε = 0; if ``T_i`` never read ``T_u``'s writes it is undisturbed
  and ε is its optimistic shadow's elapsed time).
* ``V_later`` — defer in favour of ``T_i``, which finishes at
  ``later = t + E_Ci - ε_o_i``; then (a) if ``T_u`` has no shadow for a
  conflict with ``T_i`` it commits right after, ``V_later = V_i(later) +
  V_u(later)``; (b) otherwise ``T_i``'s commit aborts the finished shadow
  and adopts ``T_i_u``, ``V_later = V_i(later) + V_u(later + E_Cu -
  ε_i_u)``.

``E_C`` is a transaction's execution time, its deterministic
``spec.estimated_duration``.  ``T_i`` votes to commit iff ``V_now ≥
V_later``.  Votes are weighed by the transactions' relative current values
(Definition 9) into the commit indicator ``CI_u`` (Definition 10);
``T_o_u`` commits iff ``CI_u > 50%``.

Votes are re-evaluated whenever a shadow finishes and after every commit,
plus on the periodic Δ backstop (votes are time-dependent through the
value functions).
"""

from __future__ import annotations

from typing import Optional

from repro.core.deferral import DeferredTermination
from repro.core.probability import elapsed_execution
from repro.core.replacement import ReplacementPolicy
from repro.core.scc_base import SCCTxnRuntime
from repro.core.scc_ks import SCCkS
from repro.protocols.ranges import check_commit_threshold


class VWTermination(DeferredTermination):
    """The §3.3 voted-waiting Termination Rule."""

    def __init__(
        self,
        period: float,
        commit_threshold: float = 0.5,
        max_deferral: Optional[float] = None,
    ) -> None:
        super().__init__(
            period=period, evaluate_eagerly=True, max_deferral=max_deferral
        )
        check_commit_threshold(commit_threshold)
        self.commit_threshold = commit_threshold

    def should_commit(self, runtime: SCCTxnRuntime, now: float) -> bool:
        """Evaluate the commit indicator ``CI_u`` (Definitions 9-10).

        Parameters
        ----------
        runtime : SCCTxnRuntime
            The finished transaction whose commitment is being decided.
        now : float
            Current simulated time (votes are time-dependent through the
            value functions).

        Returns
        -------
        bool
            ``True`` when the value-weighted commit votes exceed the
            commit threshold (or no executing conflicting transaction is
            left to wait for).
        """
        voters = self._executing_partners(runtime)
        if not voters:
            # Every conflicting transaction is itself finished/deferred;
            # nobody is left to wait for.
            return True
        weighted = [
            (voter, max(voter.spec.value_function(now), 0.0))
            for voter in voters
        ]
        total_weight = sum(weight for _, weight in weighted)
        if total_weight <= 0.0:
            # All voters are past their break-even point; deferring for
            # them cannot add value.
            return True
        # Hoist the per-committer constants out of the per-voter vote:
        # the electorate re-votes on every finish/commit/tick, so this
        # loop runs orders of magnitude more often than transactions
        # commit.
        protocol = self.protocol
        step_time = protocol.system.resources.step_service_time
        v_u = runtime.spec.value_function
        mean_u = runtime.spec.estimated_duration
        indicator = 0.0
        for voter, weight in weighted:
            if self._commit_vote(
                runtime, voter, now, protocol, step_time, v_u, mean_u
            ):
                indicator += weight / total_weight
        return indicator > self.commit_threshold

    # ------------------------------------------------------------------
    # the vote (Definition 8)
    # ------------------------------------------------------------------

    def _commit_vote(
        self,
        finished: SCCTxnRuntime,
        voter: SCCTxnRuntime,
        now: float,
        protocol,
        step_time: float,
        v_u,
        mean_u: float,
    ) -> bool:
        """Cast one transaction's commit-now vs defer vote (Definition 8).

        The trailing parameters are per-committer constants hoisted by
        :meth:`should_commit` (the only caller), which re-votes the whole
        electorate on every finish/commit/tick.
        """
        v_i = voter.spec.value_function
        mean_i = voter.spec.estimated_duration
        eps_opt_i = elapsed_execution(voter.optimistic, step_time, now)

        # --- V_now: commit the finished shadow at t ---------------------
        if finished.txn_id in voter.conflicts:
            # The commit aborts the voter's optimistic shadow; it falls
            # back to the shadow accounting for the conflict with T_u.
            fallback = voter.speculatives.get(finished.txn_id)
            if fallback is None:
                written = protocol.index.written_by(finished.txn_id)
                survivors = [
                    s
                    for s in voter.speculatives.values()
                    if s.alive and not s.has_read_any(written)
                ]
                eps_fallback = (
                    max(elapsed_execution(s, step_time, now) for s in survivors)
                    if survivors
                    else 0.0
                )
            else:
                eps_fallback = elapsed_execution(fallback, step_time, now)
            voter_finish_now = now + max(mean_i - eps_fallback, 0.0)
        else:
            # The voter never read the finished transaction's writes; the
            # commit does not disturb it.
            voter_finish_now = now + max(mean_i - eps_opt_i, 0.0)
        v_now = v_u(now) + v_i(voter_finish_now)

        # --- V_later: defer in favour of the voter ----------------------
        later = now + max(mean_i - eps_opt_i, 0.0)
        if voter.txn_id in finished.conflicts:
            shadow = finished.speculatives.get(voter.txn_id)
            eps_iu = elapsed_execution(shadow, step_time, now) if shadow is not None else 0.0
            v_later = v_i(later) + v_u(later + max(mean_u - eps_iu, 0.0))
        else:
            # Case (a): the finished shadow survives the voter's commit and
            # can be committed right after it.
            v_later = v_i(later) + v_u(later)
        return v_now >= v_later

    # ------------------------------------------------------------------
    # the electorate (Definition 9's set of executing conflicting txns)
    # ------------------------------------------------------------------

    def _executing_partners(self, runtime: SCCTxnRuntime) -> list[SCCTxnRuntime]:
        protocol = self.protocol
        partners: dict[int, SCCTxnRuntime] = {}
        for writer in runtime.conflicts.writers():
            other = protocol.runtime_of(writer)
            if other is not None:
                partners[writer] = other
        for other in protocol.readers_of_writes(runtime):
            partners[other.txn_id] = other
        partners.pop(runtime.txn_id, None)
        # "executing" transactions only: finished-and-deferred ones do not
        # vote (they are no longer racing the finished shadow).
        return [
            rt
            for rt in partners.values()
            if not rt.finished_waiting
        ]


class SCCVW(SCCkS):
    """SCC with Voted Waiting: SCC-kS plus the §3.3 Termination Rule.

    Parameters
    ----------
    k : int, optional
        Shadow budget (as SCC-kS); defaults to the two-shadow setting the
        paper's evaluation uses.
    period : float
        Re-evaluation backstop period Δ in seconds.
    commit_threshold : float
        The 50% commit-indicator threshold.
    max_deferral : float, optional
        Hard deferral cap (safety valve).
    replacement : ReplacementPolicy, optional
        Shadow replacement policy (LBFO by default).
    """

    name = "SCC-VW"

    def __init__(
        self,
        k: Optional[int] = 2,
        period: float = 0.01,
        commit_threshold: float = 0.5,
        max_deferral: Optional[float] = None,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        super().__init__(
            k=k,
            replacement=replacement,
            termination=VWTermination(
                period=period,
                commit_threshold=commit_threshold,
                max_deferral=max_deferral,
            ),
        )
        self.name = "SCC-VW"
