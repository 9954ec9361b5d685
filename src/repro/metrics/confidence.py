"""Confidence intervals over replications.

The paper: "Enough runs to guarantee a 90% confidence interval were
performed."  We replicate runs with independent seed families and compute
Student-t intervals for each reported measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} ({self.level:.0%}, n={self.n})"


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.90
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a degenerate interval with zero half-width (the
    caller is expected to replicate; this keeps smoke tests cheap).
    """
    if not samples:
        raise ConfigurationError("confidence interval over zero samples")
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must be in (0, 1), got {level}")
    import numpy as np

    n = len(samples)
    mean = float(np.mean(samples))
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, level=level, n=1)
    # Imported here: scipy takes ~1 s to load and only this quantile needs it.
    from scipy import stats

    sem = float(np.std(samples, ddof=1)) / math.sqrt(n)
    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, level=level, n=n)
