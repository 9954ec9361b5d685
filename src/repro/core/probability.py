"""Probabilistic machinery for SCC-DC (paper §3.2, Definitions 3-7).

* **Shadow finish probability** (Def. 4): the conditional probability that
  a shadow which has already executed ε time units finishes by wall time
  ``x``, ``(F(ε) - F(ε + x - now)) / F(ε)`` for the class survival
  function ``F`` (Def. 3); a speculative shadow is assumed to resume
  immediately (the paper's footnote 6).
* **Shadow adoption probability** (Def. 5): the value-weighted recursive
  formula for how likely each shadow is to end up committing on behalf of
  its transaction.  The formula is mutually recursive across conflicting
  transactions (``P_o_u`` depends on the partners' ``P_o``), so we solve it
  by fixed-point iteration from ``P_o = 1``; values are clamped at zero for
  probability purposes (a tardy transaction with negative value has no
  pull on serialization-order likelihoods).
* **Expected finish / expected value** (Defs. 6-7) evaluated at the Δ-tick
  grid the Termination Rule uses, in closed form (below).

Closed form.  A transaction's execution time is its deterministic
``spec.estimated_duration`` ``d``, so Def. 3's survival function is the
step ``F(x) = 1`` for ``x < d`` and ``0`` from ``d`` on.  For a shadow
with elapsed time ``ε < d``, Def. 4 at tick ``now + kΔ`` is then ``0``
until ``ε + kΔ ≥ d`` and ``1`` from there: the finish probability jumps
once.  The ``l_j`` horizon that truncates the paper's infinite sums (the
least execution time whose conditional finish probability reaches
``1 - ε_DC``, for any cutoff ``ε_DC`` in ``(0, 1)``) is ``d`` itself, so
Def. 6's expectation has one term: the shadow commits at the first tick
``k = ceil((d - ε)/Δ)`` and Def. 7's expected value is ``V(now + kΔ)``.
A shadow with ``ε ≥ d`` has outlived its duration and finishes by the
first tick (``k = 1``).  The cutoff ``ε_DC`` therefore has no effect.
In floats, ``k`` is the first tick where ``ε + (tick - now) ≥ d`` or
``tick ≥ now + max(d - ε, 0)`` holds for ``tick = now + k*Δ``, capped at
:data:`_MAX_TICKS`; both tests are monotone in ``k``, and the quotient
can miss that tick by one (or more, where ``now`` is large enough for
ticks to round), so :func:`expected_commit_value` starts from the
quotient and steps to it.  ``tests/core/dc_tick_oracle.py`` keeps the
tick-by-tick sum as an oracle and matches it call for call.

Faithfulness note: the paper's ``V_now``/``V_later`` write the *same*
``Σ_i Σ_k EV_i`` term on both sides, and sum ``EV`` (built from the
*cumulative* finish probability) over ticks.  Taken literally that (a)
cancels the conflict terms, making deferral never preferable for a
non-increasing value function, and (b) double-counts probability mass
across ticks.  We implement the evident intent (cf. Figure 10 and the
Haritsa WAIT policy the section builds on): per-tick probability
*increments* (a proper expectation over commit instants), and conflict
terms conditioned on the decision — partners are evaluated in the
"committer commits now" world for ``V_now`` (their exposed shadows die and
the surviving shadow resumes) and in the "committer defers" world for
``V_later``.  Both readings agree on the self term and on conflict-free
transactions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro._record import FrozenRecord, Record
from repro.errors import ConfigurationError
from repro.protocols.base import ExecutionState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scc_base import SCCProtocolBase, SCCTxnRuntime
    from repro.core.shadow import Shadow

# Fixed-point iterations for the mutually recursive adoption formula; the
# mapping is a contraction in practice and converges in a handful of steps.
_ADOPTION_ITERATIONS = 8
# Hard cap on the Δ-tick a component commits at (safety valve for tiny Δ).
_MAX_TICKS = 2_000


def elapsed_execution(
    shadow: "Shadow", step_time: float, now: Optional[float] = None
) -> float:
    """Execution time a shadow has consumed (ε in the paper).

    Completed steps plus the in-flight fraction of the current step when
    the shadow is mid-service (for a never-blocked optimistic shadow this
    equals ``now - arrival``, the paper's ε for optimistic shadows).
    """
    base = shadow.pos * step_time
    if (
        now is not None
        and shadow.state is ExecutionState.RUNNING
        and shadow.step_started_at is not None
    ):
        base += min(max(now - shadow.step_started_at, 0.0), step_time)
    return base


class AdoptionProfile(Record):
    """Adoption probabilities of one transaction's shadows (Def. 5).

    ``p_optimistic + Σ p_writer.values() == 1`` by construction; writers
    whose conflicts have no live shadow still carry their probability mass
    (it corresponds to the from-scratch fallback the Commit Rule uses).
    """

    __slots__ = ("p_optimistic", "p_writer")

    def __init__(
        self, p_optimistic: float, p_writer: Optional[dict[int, float]] = None
    ) -> None:
        self.p_optimistic = p_optimistic
        self.p_writer = {} if p_writer is None else p_writer

    def total(self) -> float:
        """Total probability mass (should be 1)."""
        return self.p_optimistic + sum(self.p_writer.values())


def adoption_profiles(
    protocol: "SCCProtocolBase",
    now: float,
    exclude: Optional[int] = None,
) -> dict[int, AdoptionProfile]:
    """Solve Definition 5 for every active transaction.

    Parameters
    ----------
    protocol : SCCProtocolBase
        The SCC protocol (gives the runtimes and conflict tables).
    now : float
        Evaluation time ``t``.
    exclude : int, optional
        Transaction id to treat as already departed (used to evaluate the
        "committer commits now" world).
    """
    runtimes = {
        rt.txn_id: rt for rt in protocol.runtimes() if rt.txn_id != exclude
    }
    values = {
        txn_id: max(rt.spec.value_function(now), 0.0)
        for txn_id, rt in runtimes.items()
    }
    p_opt = {txn_id: 1.0 for txn_id in runtimes}
    writers_of = {
        txn_id: [
            w
            for w in rt.conflicts.writers()
            if w != exclude and w in runtimes
        ]
        for txn_id, rt in runtimes.items()
    }
    for _ in range(_ADOPTION_ITERATIONS):
        new_p = {}
        for txn_id, rt in runtimes.items():
            denom = values[txn_id] + sum(
                values[w] * p_opt[w] for w in writers_of[txn_id]
            )
            new_p[txn_id] = values[txn_id] / denom if denom > 0 else 1.0
        p_opt = new_p
    profiles: dict[int, AdoptionProfile] = {}
    for txn_id, rt in runtimes.items():
        conflict_writers = writers_of[txn_id]
        denom = values[txn_id] + sum(
            values[w] * p_opt[w] for w in conflict_writers
        )
        if denom <= 0 or not conflict_writers:
            profiles[txn_id] = AdoptionProfile(p_optimistic=1.0)
            continue
        p_writers = {
            w: values[w] * p_opt[w] / denom for w in conflict_writers
        }
        profiles[txn_id] = AdoptionProfile(
            p_optimistic=values[txn_id] / denom, p_writer=p_writers
        )
    return profiles


class ShadowComponent(FrozenRecord):
    """One term of Definition 6's expected-finish sum.

    Attributes
    ----------
    probability : float
        Adoption probability of the shadow (``P_j_u``).
    elapsed : float or None
        Execution time already performed, or ``None`` for a shadow that
        has *finished* executing (it commits at the next tick).
    """

    __slots__ = ("probability", "elapsed")

    def __init__(self, probability: float, elapsed: Optional[float]) -> None:
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "elapsed", elapsed)


def expected_commit_value(
    value_function,
    duration: float,
    components: list[ShadowComponent],
    now: float,
    delta: float,
) -> float:
    """E[V(commit time)] over a mixture of shadows on the Δ-tick grid.

    Each component is one shadow of a transaction whose execution takes
    ``duration``; it contributes its adoption probability times the value
    at the tick it finishes by (see the module docstring for the closed
    form).  A finished component commits at the first tick.
    """
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    total = 0.0
    for component in components:
        if component.probability <= 0.0:
            continue
        if component.elapsed is None:
            total += component.probability * value_function(now + delta)
            continue
        k = _finish_tick(duration, component.elapsed, now, delta)
        total += component.probability * value_function(now + k * delta)
    return total


def _finish_tick(duration: float, elapsed: float, now: float, delta: float) -> int:
    """First tick ``k`` (at most :data:`_MAX_TICKS`) a shadow finishes by.

    The tick where ``elapsed + (tick - now) >= duration`` first holds, or
    where ``tick`` reaches the horizon ``now + max(duration - elapsed,
    0)``, whichever comes first: the float tests of the paper's Δ-tick
    sum, both monotone in ``k``.
    """
    horizon = now + max(duration - elapsed, 0.0)

    def finished(k: int) -> bool:
        tick = now + k * delta
        return elapsed + (tick - now) >= duration or tick >= horizon

    k = math.ceil(min(max((duration - elapsed) / delta, 1.0), _MAX_TICKS))
    while k > 1 and finished(k - 1):
        k -= 1
    while k < _MAX_TICKS and not finished(k):
        k += 1
    return k


# ----------------------------------------------------------------------
# world-conditioned component builders (used by SCC-DC's Termination Rule)
# ----------------------------------------------------------------------


def components_current(
    protocol: "SCCProtocolBase",
    runtime: "SCCTxnRuntime",
    profile: AdoptionProfile,
    step_time: float,
    now: Optional[float] = None,
) -> list[ShadowComponent]:
    """Shadow mixture of a transaction in the *defer* world (status quo)."""
    components = []
    optimistic = runtime.optimistic
    if optimistic.state is ExecutionState.FINISHED:
        components.append(
            ShadowComponent(probability=profile.p_optimistic, elapsed=None)
        )
    else:
        components.append(
            ShadowComponent(
                probability=profile.p_optimistic,
                elapsed=elapsed_execution(optimistic, step_time, now),
            )
        )
    for writer, probability in profile.p_writer.items():
        shadow = runtime.speculatives.get(writer)
        elapsed = (
            elapsed_execution(shadow, step_time, now) if shadow is not None else 0.0
        )
        components.append(
            ShadowComponent(probability=probability, elapsed=elapsed)
        )
    return components


def components_after_commit(
    protocol: "SCCProtocolBase",
    runtime: "SCCTxnRuntime",
    committer: "SCCTxnRuntime",
    profile: AdoptionProfile,
    step_time: float,
    now: Optional[float] = None,
) -> list[ShadowComponent]:
    """Shadow mixture of a partner if ``committer`` commits right now.

    Mirrors the Commit Rule hypothetically: shadows that read the
    committer's written pages die; the optimistic slot is taken by the
    shadow that waited on the committer (or the latest-blocked survivor,
    or a from-scratch restart).  ``profile`` must have been computed with
    ``exclude=committer.txn_id``.
    """
    written = protocol.index.written_by(committer.txn_id)
    optimistic = runtime.optimistic
    exposed = optimistic.has_read_any(written)
    if not exposed:
        return components_current(protocol, runtime, profile, step_time, now)
    survivors = {
        writer: shadow
        for writer, shadow in runtime.speculatives.items()
        if shadow.alive and not shadow.has_read_any(written)
    }
    promoted = survivors.pop(committer.txn_id, None)
    if promoted is None and survivors:
        best_writer = max(
            survivors, key=lambda w: (survivors[w].pos, -survivors[w].serial)
        )
        promoted = survivors.pop(best_writer)
    promoted_elapsed = (
        elapsed_execution(promoted, step_time, now) if promoted is not None else 0.0
    )
    components = [
        ShadowComponent(probability=profile.p_optimistic, elapsed=promoted_elapsed)
    ]
    for writer, probability in profile.p_writer.items():
        shadow = survivors.get(writer)
        elapsed = (
            elapsed_execution(shadow, step_time, now) if shadow is not None else 0.0
        )
        components.append(ShadowComponent(probability=probability, elapsed=elapsed))
    return components
