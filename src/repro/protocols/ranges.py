"""The ranges of the protocol families' parameters, each written once.

Each check below is called by the constructor that takes the parameter
and by the parameter's :class:`~repro.protocols.registry.ParamSpec`, so
a protocol spec with a value out of range is refused when it is parsed,
with the message its constructor gives, before any cell runs and
without importing the protocol's module.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError

#: The shortest Δ the special clock takes (seconds).  A tick lands at the
#: next multiple of Δ, ``floor(now / Δ + 1) * Δ``; once ``now / Δ``
#: passes 2**53 the added tick is lost to rounding and the clock cannot
#: advance.  At a nanosecond that takes about 100 simulated days; at
#: 1e-300 s it takes no time at all.
MIN_PERIOD = 1e-9


def check_shadow_budget(k: Optional[int]) -> None:
    """SCC-kS: ``k`` shadows per transaction, at least 1 (``None``: no bound)."""
    if k is not None and k < 1:
        raise ConfigurationError(f"k must be >= 1 (got {k})")


def check_period(period: float) -> None:
    """The Δ of SCC-DC's and SCC-VW's clock: finite, at least :data:`MIN_PERIOD`."""
    if not MIN_PERIOD <= period < math.inf:
        raise ConfigurationError(
            f"period must be a finite number of seconds >= {MIN_PERIOD:g} "
            f"(shorter ticks cannot advance the clock), got {period}"
        )


def check_max_deferral(max_deferral: Optional[float]) -> None:
    """A deferral cap: ``None`` (none) or at least 0."""
    if max_deferral is not None and max_deferral < 0:
        raise ConfigurationError(f"max_deferral must be >= 0, got {max_deferral}")


def check_epsilon(epsilon: float) -> None:
    """SCC-DC's ``l_i`` truncation bound, in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")


def check_commit_threshold(commit_threshold: float) -> None:
    """SCC-VW's commit-vote threshold, in [0, 1)."""
    if not 0.0 <= commit_threshold < 1.0:
        raise ValueError(
            f"commit_threshold must be in [0, 1), got {commit_threshold}"
        )


def check_wait_threshold(wait_threshold: float) -> None:
    """WAIT-X's share of higher-priority conflicters that forces a wait, in (0, 1]."""
    if not 0.0 < wait_threshold <= 1.0:
        raise ValueError(f"wait_threshold must be in (0, 1], got {wait_threshold}")
