"""SCC-DC's Δ-tick walk over a survival function, kept as a test oracle.

:func:`repro.core.probability.expected_commit_value` finds in closed form
the tick at which a shadow of a deterministic execution time finishes.
This module keeps the walk it replaced: the class survival function of
that execution time (paper Def. 3), the conditional finish probability
(Def. 4), the ``l_j`` horizon found by doubling then bisection, and the
loop that sums value increments over the Δ-tick grid up to the horizon
and assigns the residual mass to the last tick.  Tests hold the closed
form to it call for call.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

# Hard cap on Δ-ticks summed per component (safety valve for tiny Δ).
MAX_TICKS = 2_000


class StepSurvival:
    """All transactions of the class take exactly ``duration`` time units."""

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        self._duration = duration

    def survival(self, x: float) -> float:
        return 1.0 if x < self._duration else 0.0

    def mean(self) -> float:
        return self._duration

    def conditional_finish_by(self, x: float, elapsed: float) -> float:
        """Definition 4: ``Prob[finish by x | still running after elapsed]``."""
        if x < elapsed:
            return 0.0
        s_elapsed = self.survival(elapsed)
        if s_elapsed <= 1e-12:
            return 1.0
        prob = (s_elapsed - self.survival(x)) / s_elapsed
        return min(1.0, max(0.0, prob))

    def horizon(self, elapsed: float, epsilon: float = 0.01) -> float:
        """Smallest ``x`` with conditional finish probability ``>= 1 - epsilon``."""
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        target = 1.0 - epsilon
        lo = max(elapsed, 1e-12)
        hi = max(self.mean(), lo) * 2.0
        for _ in range(128):
            if self.conditional_finish_by(hi, elapsed) >= target:
                break
            hi *= 2.0
        else:  # pragma: no cover - distribution with unbounded heavy tail
            return hi
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if self.conditional_finish_by(mid, elapsed) >= target:
                hi = mid
            else:
                lo = mid
        return hi


def shadow_finish_probability(dist, elapsed, now, wall):
    """Definition 4: probability of finishing by wall time ``wall``."""
    if wall < now:
        return 0.0
    return dist.conditional_finish_by(elapsed + (wall - now), elapsed)


def tick_walk_value(value_function, duration, components, now, delta, epsilon=0.01):
    """E[V(commit time)] summed tick by tick, truncated at the ``l_j`` horizon.

    Same arguments as :func:`~repro.core.probability.expected_commit_value`
    plus the truncation bound ``epsilon``.
    """
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    dist = StepSurvival(duration)
    total = 0.0
    for component in components:
        if component.probability <= 0.0:
            continue
        if component.elapsed is None:
            total += component.probability * value_function(now + delta)
            continue
        elapsed = component.elapsed
        horizon_exec = dist.horizon(elapsed, epsilon)
        horizon_wall = now + max(horizon_exec - elapsed, 0.0)
        expected = 0.0
        mass = 0.0
        prev_f = 0.0
        k = 0
        while k < MAX_TICKS:
            k += 1
            tick = now + k * delta
            f_k = shadow_finish_probability(dist, elapsed, now, tick)
            increment = max(f_k - prev_f, 0.0)
            if increment > 0.0:
                expected += value_function(tick) * increment
                mass += increment
            prev_f = f_k
            if tick >= horizon_wall:
                break
        if mass < 1.0:
            # Residual tail (the paper's "arbitrarily small error" ε).
            expected += value_function(now + k * delta) * (1.0 - mass)
        total += component.probability * expected
    return total
