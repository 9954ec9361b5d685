"""SCC-DC: Speculative Concurrency Control with Deferred Commit (§3.2).

SCC-kS plus the probabilistic Termination Rule: a special system clock
ticks every Δ seconds; at each tick, every finished optimistic shadow
``T_o_u`` is either committed or deferred by comparing

* ``V_now`` — the value of committing now: ``V_u(t)`` plus each conflicting
  partner's expected commit value *given the commit* (its exposed shadows
  die, the surviving shadow resumes — Definition 6/7 over the post-Commit-
  Rule shadow mixture), against
* ``V_later`` — the transaction's own expected commit value under deferral
  (its finished shadow may still commit at a later tick, or be abandoned
  for a speculative shadow if a conflicting transaction commits first, the
  mixture weighted by the Definition-5 adoption probabilities) plus each
  partner's expected commit value *without* the commit.

See :mod:`repro.core.probability` for the exact treatment (including the
documented correction of the paper's literal formulas).  A transaction's
execution time is its deterministic estimated duration, so each shadow's
finish probability jumps once and its expected commit value is the value
at one tick, found in closed form; the paper truncates its infinite sums
at ``l_i`` horizons where the conditional finish probability reaches
``1 - ε``, and under a deterministic duration that bound has no effect.
"""

from __future__ import annotations

from typing import Optional

from repro.core.deferral import DeferredTermination
from repro.core.probability import (
    adoption_profiles,
    components_after_commit,
    components_current,
    expected_commit_value,
)
from repro.core.replacement import ReplacementPolicy
from repro.core.scc_base import SCCTxnRuntime
from repro.core.scc_ks import SCCkS
from repro.protocols.ranges import check_epsilon


class DCTermination(DeferredTermination):
    """The §3.2 Termination Rule (periodic, probability-driven).

    ``epsilon`` is the paper's ``l_i`` truncation bound.  Under the
    deterministic execution times every run uses it has no effect on a
    decision; it is validated and kept because it is part of a stored
    SCC-DC cell's protocol identity.
    """

    def __init__(
        self,
        period: float,
        epsilon: float = 0.01,
        max_deferral: Optional[float] = None,
    ) -> None:
        super().__init__(
            period=period, evaluate_eagerly=False, max_deferral=max_deferral
        )
        check_epsilon(epsilon)
        self.epsilon = epsilon

    def should_commit(self, runtime: SCCTxnRuntime, now: float) -> bool:
        """Compare ``V_now`` against ``V_later`` per the §3.2 Termination Rule.

        ``V_later`` is the expected value of deferring (Definitions 6-7,
        evaluated over the Δ-tick grid from the shadows' finish
        probabilities); ``V_now`` adds the conflicting partners' expected
        values in the "committer commits now" world.  Returns ``True``
        when deferring no longer buys expected value.
        """
        protocol = self.protocol
        step_time = protocol.system.resources.step_service_time
        partners = self._partners(runtime)
        value_now = runtime.spec.value_function(now)

        # Self term of V_later: expected value of deferring T_u.
        profiles_defer = adoption_profiles(protocol, now)
        self_profile = profiles_defer.get(runtime.txn_id)
        if self_profile is None:  # pragma: no cover - defensive
            return True
        v_later = expected_commit_value(
            runtime.spec.value_function,
            runtime.spec.estimated_duration,
            components_current(protocol, runtime, self_profile, step_time, now),
            now,
            self.period,
        )
        v_now = value_now
        if partners:
            profiles_commit = adoption_profiles(
                protocol, now, exclude=runtime.txn_id
            )
            for partner in partners:
                duration = partner.spec.estimated_duration
                vf = partner.spec.value_function
                commit_profile = profiles_commit.get(partner.txn_id)
                defer_profile = profiles_defer.get(partner.txn_id)
                if commit_profile is None or defer_profile is None:
                    continue
                v_now += expected_commit_value(
                    vf,
                    duration,
                    components_after_commit(
                        protocol, partner, runtime, commit_profile, step_time, now
                    ),
                    now,
                    self.period,
                )
                v_later += expected_commit_value(
                    vf,
                    duration,
                    components_current(protocol, partner, defer_profile, step_time, now),
                    now,
                    self.period,
                )
        return v_now >= v_later

    def _partners(self, runtime: SCCTxnRuntime) -> list[SCCTxnRuntime]:
        """*Executing* transactions conflicting with ``runtime``.

        Finished-and-deferred partners are excluded (the same "executing
        transactions" notion as §3.3's electorate): their fate is decided
        by their own Termination-Rule evaluation, in serialization-
        consistent order.  Including them makes mutually-finished
        transactions defer each other forever — each tick, committing
        costs the partner more than one tick of own-value decay, a locally
        rational but globally divergent standoff.
        """
        protocol = self.protocol
        partners: dict[int, SCCTxnRuntime] = {}
        for writer in runtime.conflicts.writers():
            other = protocol.runtime_of(writer)
            if other is not None:
                partners[writer] = other
        for other in protocol.readers_of_writes(runtime):
            partners[other.txn_id] = other
        partners.pop(runtime.txn_id, None)
        return [rt for rt in partners.values() if not rt.finished_waiting]


class SCCDC(SCCkS):
    """SCC with Deferred Commit: SCC-kS plus the §3.2 Termination Rule.

    Parameters
    ----------
    k : int, optional
        Shadow budget (as SCC-kS); ``None`` = unlimited.
    period : float
        The Δ of the termination clock, in seconds.
    epsilon : float
        The paper's truncation bound for the ``l_i`` horizons.  It has no
        effect under deterministic execution times (the horizon is the
        duration itself) and is kept as part of the protocol's identity.
    max_deferral : float, optional
        Hard cap on deferral time (safety valve).
    replacement : ReplacementPolicy, optional
        Shadow replacement policy (LBFO by default).
    """

    name = "SCC-DC"

    def __init__(
        self,
        k: Optional[int] = 2,
        period: float = 0.01,
        epsilon: float = 0.01,
        max_deferral: Optional[float] = None,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        super().__init__(
            k=k,
            replacement=replacement,
            termination=DCTermination(
                period=period, epsilon=epsilon, max_deferral=max_deferral
            ),
        )
        self.name = "SCC-DC"
