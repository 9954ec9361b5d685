"""Value functions (paper Definitions 1 and 2).

A transaction :math:`T_u` with arrival :math:`A_u`, soft deadline
:math:`D_u`, full value :math:`v_u`, and criticalness angle :math:`\\alpha_u`
has value

.. math::

    V_u(t) = \\begin{cases}
        v_u & A_u \\le t \\le D_u \\\\
        v_u - (t - D_u)\\tan\\alpha_u & t > D_u
    \\end{cases}

The *penalty gradient* :math:`\\tan\\alpha_u` ranges from 0 (non-critical:
the transaction keeps its full value forever) towards :math:`\\infty`
(:math:`\\alpha_u = \\pi/2`: any tardiness forfeits unbounded value).  Value
and deadline are orthogonal (paper §3.1): a tight deadline does not imply a
high value, and vice versa.
"""

from __future__ import annotations

import math

from repro._record import FrozenRecord
from repro.errors import ConfigurationError


class ValueFunction(FrozenRecord):
    """The paper's step-plus-gradient value function.

    Attributes:
        value: Full value :math:`v_u` gained by committing on time.
        deadline: Soft deadline :math:`D_u` (absolute simulated time).
        penalty_gradient: :math:`\\tan\\alpha_u \\ge 0`; value lost per
            second of tardiness.  ``math.inf`` models a fully critical
            transaction (:math:`\\alpha_u = \\pi/2`).
        arrival: Arrival time :math:`A_u`; evaluation before arrival is a
            configuration error caught eagerly.
    """

    __slots__ = ("value", "deadline", "penalty_gradient", "arrival")

    def __init__(
        self,
        value: float,
        deadline: float,
        penalty_gradient: float,
        arrival: float = 0.0,
    ) -> None:
        if value < 0:
            raise ConfigurationError(f"value must be >= 0, got {value}")
        if penalty_gradient < 0:
            raise ConfigurationError(
                f"penalty gradient must be >= 0, got {penalty_gradient}"
            )
        if deadline < arrival:
            raise ConfigurationError(
                f"deadline {deadline} precedes arrival {arrival}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "deadline", deadline)
        object.__setattr__(self, "penalty_gradient", penalty_gradient)
        object.__setattr__(self, "arrival", arrival)

    @classmethod
    def from_angle(
        cls,
        value: float,
        deadline: float,
        alpha_degrees: float,
        arrival: float = 0.0,
    ) -> "ValueFunction":
        """Build a value function from the criticalness angle in degrees.

        ``alpha_degrees == 90`` yields an infinite penalty gradient.
        """
        if not 0.0 <= alpha_degrees <= 90.0:
            raise ConfigurationError(
                f"alpha must be in [0, 90] degrees, got {alpha_degrees}"
            )
        if alpha_degrees == 90.0:
            gradient = math.inf
        else:
            gradient = math.tan(math.radians(alpha_degrees))
        return cls(value=value, deadline=deadline, penalty_gradient=gradient, arrival=arrival)

    def __call__(self, t: float) -> float:
        """Evaluate :math:`V_u(t)` at commit time ``t``.

        Past the deadline the value decreases linearly and may go negative
        (a committed-late critical transaction can *cost* the system value,
        which is exactly what makes Figure 14's System Value dip below 0).
        """
        if t < self.arrival:
            raise ConfigurationError(
                f"value function evaluated at t={t} before arrival {self.arrival}"
            )
        if t <= self.deadline:
            return self.value
        tardiness = t - self.deadline
        if math.isinf(self.penalty_gradient):
            return -math.inf
        return self.value - tardiness * self.penalty_gradient

    def tardiness(self, t: float) -> float:
        """Tardiness of a commit at ``t``: 0 when on time, else ``t - D``."""
        return max(0.0, t - self.deadline)

    def is_late(self, t: float) -> bool:
        """Whether a commit at ``t`` misses the deadline."""
        return t > self.deadline

    def breakeven_time(self) -> float:
        """Time at which the value function crosses zero.

        Returns ``math.inf`` for non-critical transactions (gradient 0) and
        the deadline itself for fully critical ones.
        """
        if self.penalty_gradient == 0.0:
            return math.inf
        if math.isinf(self.penalty_gradient):
            return self.deadline
        return self.deadline + self.value / self.penalty_gradient
