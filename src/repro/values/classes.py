"""Transaction classes (paper §3.2, "Basic Definitions and Assumptions").

The paper classifies transactions by run-time characteristics: each class
:math:`C_u` has an average execution time :math:`E_{C_u}`, a finish
probability (survival) function :math:`F_u`, and — in the two-class System
Value experiment of Figure 14(b) — its own value magnitude and penalty
gradient.  A :class:`TransactionClass` bundles the *parameters* from which
the workload generator samples concrete transactions.  Execution time is
deterministic: a transaction takes its step count times the per-step
service time (``TransactionSpec.estimated_duration``), so :math:`E_{C_u}`
is that duration and :math:`F_u` steps from 1 to 0 there.
"""

from __future__ import annotations

import math

from repro._record import FrozenRecord
from repro.errors import ConfigurationError


class TransactionClass(FrozenRecord):
    """Static description of one class of transactions.

    Attributes:
        name: Class label (appears in metrics breakdowns).
        num_steps: Number of page accesses per transaction of this class.
        write_probability: Probability each accessed page is also updated
            (read-modify-write), the paper's 25% in the baseline model.
        slack_factor: Deadline slack: ``deadline = arrival + slack_factor *
            estimated_execution_time`` (paper baseline: 2).
        value: Full value :math:`v_u` earned by an on-time commit.
        alpha_degrees: Criticalness angle; the penalty gradient is
            :math:`\\tan\\alpha` (paper baseline for value experiments: 45°).
        weight: Relative frequency of the class in the workload mix
            (normalized across classes by the generator).
    """

    __slots__ = (
        "name",
        "num_steps",
        "write_probability",
        "slack_factor",
        "value",
        "alpha_degrees",
        "weight",
    )

    def __init__(
        self,
        name: str,
        num_steps: int,
        write_probability: float,
        slack_factor: float,
        value: float = 1.0,
        alpha_degrees: float = 45.0,
        weight: float = 1.0,
    ) -> None:
        if num_steps <= 0:
            raise ConfigurationError(f"num_steps must be positive, got {num_steps}")
        if not 0.0 <= write_probability <= 1.0:
            raise ConfigurationError(
                f"write_probability must be in [0, 1], got {write_probability}"
            )
        if slack_factor < 1.0:
            raise ConfigurationError(
                f"slack_factor must be >= 1, got {slack_factor}"
            )
        if value < 0:
            raise ConfigurationError(f"value must be >= 0, got {value}")
        if not 0.0 <= alpha_degrees <= 90.0:
            raise ConfigurationError(
                f"alpha_degrees must be in [0, 90], got {alpha_degrees}"
            )
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "num_steps", num_steps)
        object.__setattr__(self, "write_probability", write_probability)
        object.__setattr__(self, "slack_factor", slack_factor)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "alpha_degrees", alpha_degrees)
        object.__setattr__(self, "weight", weight)

    @property
    def penalty_gradient(self) -> float:
        """:math:`\\tan\\alpha` — value lost per second of tardiness."""
        if self.alpha_degrees == 90.0:
            return math.inf
        return math.tan(math.radians(self.alpha_degrees))

    def to_dict(self) -> dict:
        """Plain-dict form of the class parameters.

        Every field is included, so serialized classes round-trip through
        ``TransactionClass(**payload)``.
        """
        return {
            "name": self.name,
            "num_steps": self.num_steps,
            "write_probability": self.write_probability,
            "slack_factor": self.slack_factor,
            "value": self.value,
            "alpha_degrees": self.alpha_degrees,
            "weight": self.weight,
        }
