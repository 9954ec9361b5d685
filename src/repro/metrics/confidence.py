"""Confidence intervals over replications.

The paper: "Enough runs to guarantee a 90% confidence interval were
performed."  We replicate runs with independent seed families and compute
Student-t intervals for each reported measure.

Pure Python: the moments come from :func:`math.fsum` and
:mod:`statistics`, and the Student-t quantile from inverting the
regularized incomplete beta function by bisection, its terms from
:func:`math.lgamma`.  The package needs no numerical library.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from repro._record import FrozenRecord
from repro.errors import ConfigurationError


class ConfidenceInterval(FrozenRecord):
    """A mean with a symmetric confidence half-width."""

    __slots__ = ("mean", "half_width", "level", "n")

    def __init__(self, mean: float, half_width: float, level: float, n: int) -> None:
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "n", n)

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


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)``, by the modified Lentz method.

    Converges fast for ``x < (a + 1) / (a + b + 2)``; the caller uses the
    symmetry ``I_x(a, b) = 1 - I_{1-x}(b, a)`` elsewhere.
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 10_000):
        # Each step folds in the even then the odd term of the fraction.
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            break
    return fraction


def _regularized_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def t_quantile(p: float, df: float) -> float:
    """The Student-t quantile: ``t`` with ``P(T <= t) = p``, ``T ~ t(df)``.

    For ``0.5 <= p < 1``.  ``P(|T| > t) = I_x(df/2, 1/2)`` with
    ``x = df / (df + t**2)``, so bisecting ``x`` until
    ``I_x(df/2, 1/2) = 2(1 - p)`` gives ``t``; the bisection runs until
    the bracket stops shrinking.

    Raises:
        ConfigurationError: ``p`` outside ``[0.5, 1)`` or ``df <= 0``.
    """
    if not 0.5 <= p < 1.0:
        raise ConfigurationError(f"t_quantile needs 0.5 <= p < 1, got {p}")
    if not df > 0:
        raise ConfigurationError(f"t_quantile needs df > 0, got {df}")
    tail = 2.0 * (1.0 - p)
    a = df / 2.0
    # I_x(a, 1/2) rises from 0 at x = 0 to 1 at x = 1.
    low, high = 0.0, 1.0
    middle = 0.5
    while low < middle < high:
        if _regularized_beta(a, 0.5, middle) < tail:
            low = middle
        else:
            high = middle
        middle = 0.5 * (low + high)
    return math.sqrt(df * (1.0 - high) / high)


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
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, level=level, n=1)
    sem = statistics.stdev(samples, mean) / math.sqrt(n)
    t_crit = t_quantile(0.5 + level / 2.0, n - 1)
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, level=level, n=n)
