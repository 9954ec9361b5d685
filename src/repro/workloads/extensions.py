"""The workload kinds beyond each axis's paper default.

The paper's §4 baseline draws Poisson arrivals, uniform page selection
and per-class slack deadlines; those defaults live beside their axis
interfaces (:mod:`~repro.workloads.arrivals`,
:mod:`~repro.workloads.access`, :mod:`~repro.workloads.generator`).
Every other kind lives here:

* access patterns — :class:`ZipfianAccess`, :class:`HotspotAccess`,
  :class:`PartitionedAccess`;
* arrival processes and their specs — :class:`MMPPArrivals` /
  :class:`MMPPSpec`, :class:`DiurnalArrivals` / :class:`DiurnalSpec`,
  :class:`TraceArrivals` / :class:`TraceSpec`;
* deadline policies — :class:`FixedOffsetDeadlines`.

A process that runs only the paper baseline never imports this module:
the ``*_from_dict`` functions and the scenario registry load it the
first time a payload or a scenario names one of these kinds, and every
name here stays importable from :mod:`repro.workloads`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ConfigurationError
from repro.values.classes import TransactionClass
from repro.workloads.access import AccessPattern
from repro.workloads.arrivals import ArrivalProcess, ArrivalSpec
from repro.workloads.generator import DeadlinePolicy

if TYPE_CHECKING:
    from repro.engine.rng import PCG64Stream

__all__ = [
    "DiurnalArrivals",
    "DiurnalSpec",
    "FixedOffsetDeadlines",
    "HotspotAccess",
    "MMPPArrivals",
    "MMPPSpec",
    "PartitionedAccess",
    "TraceArrivals",
    "TraceSpec",
    "ZipfianAccess",
    "extension_kind",
]


# ----------------------------------------------------------------------
# access patterns
# ----------------------------------------------------------------------


@lru_cache(maxsize=64)
def _zipf_probabilities(theta: float, num_pages: int) -> tuple[float, ...]:
    """P(page i) ∝ 1 / (i+1)^θ — page 0 is the hottest.

    Each weight is Python's ``**`` (libm ``pow``) and the sum runs in
    numpy's pairwise order, so the vector is the one numpy builds on a
    host whose ``power`` is libm's, on every host.
    """
    from repro.engine.rng import pairwise_sum

    weights = [float(rank) ** -theta for rank in range(1, num_pages + 1)]
    total = pairwise_sum(weights)
    return tuple(weight / total for weight in weights)


class ZipfianAccess(AccessPattern):
    """Zipfian page popularity with skew ``theta``.

    ``theta = 0`` degenerates to uniform; classic OLTP skew sits around
    0.8-1.0.  Page ids double as popularity ranks (page 0 hottest), which
    keeps closed-form frequencies checkable in tests.
    """

    __slots__ = ("theta",)

    def __init__(self, theta: float = 0.8) -> None:
        if theta < 0:
            raise ConfigurationError(f"theta must be >= 0, got {theta}")
        object.__setattr__(self, "theta", theta)

    @property
    def kind(self) -> str:
        return "zipfian"

    def probabilities(self, num_pages: int) -> tuple[float, ...]:
        """The per-page selection probabilities (closed form, memoized)."""
        return _zipf_probabilities(self.theta, num_pages)

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        size = len(write_flags)
        p = self.probabilities(num_pages)
        return rng.choice(num_pages, size=size, replace=False, p=p)


@lru_cache(maxsize=64)
def _hotspot_probabilities(
    hot_count: int, hot_access_fraction: float, num_pages: int
) -> tuple[float, ...]:
    cold_count = num_pages - hot_count
    return (hot_access_fraction / hot_count,) * hot_count + (
        (1.0 - hot_access_fraction) / cold_count,
    ) * cold_count


class HotspotAccess(AccessPattern):
    """The b-c rule: ``hot_access_fraction`` of accesses hit the first
    ``hot_page_fraction`` of pages (e.g. 80% of traffic on 10% of data)."""

    __slots__ = ("hot_page_fraction", "hot_access_fraction")

    def __init__(
        self, hot_page_fraction: float = 0.1, hot_access_fraction: float = 0.8
    ) -> None:
        if not 0.0 < hot_page_fraction < 1.0:
            raise ConfigurationError(
                f"hot_page_fraction must be in (0, 1), got {hot_page_fraction}"
            )
        if not 0.0 < hot_access_fraction < 1.0:
            raise ConfigurationError(
                f"hot_access_fraction must be in (0, 1), got "
                f"{hot_access_fraction}"
            )
        object.__setattr__(self, "hot_page_fraction", hot_page_fraction)
        object.__setattr__(self, "hot_access_fraction", hot_access_fraction)

    @property
    def kind(self) -> str:
        return "hotspot"

    def hot_pages(self, num_pages: int) -> int:
        """Number of pages inside the hotspot for a given database size."""
        hot = max(1, int(round(self.hot_page_fraction * num_pages)))
        return min(hot, num_pages - 1)

    def probabilities(self, num_pages: int) -> tuple[float, ...]:
        """The per-page selection probabilities (closed form, memoized)."""
        return _hotspot_probabilities(
            self.hot_pages(num_pages), self.hot_access_fraction, num_pages
        )

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        size = len(write_flags)
        p = self.probabilities(num_pages)
        return rng.choice(num_pages, size=size, replace=False, p=p)


class PartitionedAccess(AccessPattern):
    """Disjoint write-hot and read-hot page regions.

    Pages ``[0, split)`` form the write-hot region, ``[split, num_pages)``
    the read-hot region, with ``split = write_region_fraction * num_pages``.
    Updates land in the write-hot region and pure reads in the read-hot
    region, modelling e.g. append-heavy tables next to reference data —
    the regime where read-only transactions should sail while writers
    fight each other.
    """

    __slots__ = ("write_region_fraction",)

    def __init__(self, write_region_fraction: float = 0.25) -> None:
        if not 0.0 < write_region_fraction < 1.0:
            raise ConfigurationError(
                f"write_region_fraction must be in (0, 1), got "
                f"{write_region_fraction}"
            )
        object.__setattr__(self, "write_region_fraction", write_region_fraction)

    @property
    def kind(self) -> str:
        return "partitioned"

    def split(self, num_pages: int) -> int:
        """First page id of the read-hot region."""
        split = int(round(self.write_region_fraction * num_pages))
        return min(max(split, 1), num_pages - 1)

    def validate(self, num_pages: int, num_steps: int) -> None:
        super().validate(num_pages, num_steps)
        split = self.split(num_pages)
        # Worst case all steps land on one side of the split.
        smallest = min(split, num_pages - split)
        if num_steps > smallest:
            raise ConfigurationError(
                f"partitioned access needs regions of >= {num_steps} pages; "
                f"smallest region has {smallest} of {num_pages}"
            )

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        split = self.split(num_pages)
        num_writes = sum(write_flags)
        # Write pages, then read pages: the pages stream's order for this
        # pattern since it was added, so partitioned workloads stay the same.
        writes = iter(rng.choice(split, size=num_writes, replace=False))
        reads = iter(
            rng.choice(
                num_pages - split, size=len(write_flags) - num_writes, replace=False
            )
        )
        return [next(writes) if flag else split + next(reads) for flag in write_flags]


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty on/off traffic).

    The process alternates between an *on* state (rate ``burst_factor`` ×
    the quiet rate) and an *off* state, with exponentially distributed
    dwell times.  The quiet rate is solved so the long-run mean equals the
    requested ``rate``::

        mean = on_fraction * burst_factor * quiet + (1 - on_fraction) * quiet

    Args:
        rate: Target long-run mean arrival rate.
        burst_factor: On-state rate as a multiple of the off-state rate.
        on_fraction: Long-run fraction of time spent in the on state.
        mean_cycle: Mean duration of one on+off cycle in seconds.
    """

    def __init__(
        self,
        rate: float,
        burst_factor: float = 8.0,
        on_fraction: float = 0.25,
        mean_cycle: float = 10.0,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival_rate must be positive, got {rate}")
        if burst_factor <= 1.0:
            raise ConfigurationError(
                f"burst_factor must exceed 1, got {burst_factor}"
            )
        if not 0.0 < on_fraction < 1.0:
            raise ConfigurationError(
                f"on_fraction must be in (0, 1), got {on_fraction}"
            )
        if mean_cycle <= 0:
            raise ConfigurationError(f"mean_cycle must be positive, got {mean_cycle}")
        self._rate = rate
        quiet = rate / (on_fraction * burst_factor + (1.0 - on_fraction))
        self._state_rates = (quiet, burst_factor * quiet)  # off, on
        self._dwell_means = (
            (1.0 - on_fraction) * mean_cycle,
            on_fraction * mean_cycle,
        )
        self._on_fraction = on_fraction
        self._clock = 0.0
        self._state: int | None = None  # 0 = off, 1 = on; lazily initialized
        self._state_end = 0.0

    @property
    def rate(self) -> float:
        return self._rate

    def _enter_state(self, state: int, rng: PCG64Stream) -> None:
        self._state = state
        self._state_end = self._clock + rng.exponential(self._dwell_means[state])

    def next_arrival(self, rng: PCG64Stream) -> float:
        if self._state is None:
            # Stationary start: begin in the on state with its long-run
            # probability so short draws are not biased toward one phase.
            self._enter_state(int(rng.random() < self._on_fraction), rng)
        while True:
            candidate = self._clock + rng.exponential(
                1.0 / self._state_rates[self._state]
            )
            if candidate <= self._state_end:
                self._clock = candidate
                return self._clock
            # No arrival before the phase flips; memorylessness lets us
            # jump to the boundary and redraw under the new rate.
            self._clock = self._state_end
            self._enter_state(1 - self._state, rng)


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal rate envelope.

    ``λ(t) = rate * (1 + amplitude * sin(2πt / period))``, sampled by
    thinning against ``λ_max = rate * (1 + amplitude)``.  Over whole
    periods the time-average rate is exactly ``rate``.

    Args:
        rate: Mean arrival rate over a full period.
        amplitude: Relative swing in [0, 1); 0.7 means peak load is 1.7×
            the mean and the trough 0.3×.
        period: Cycle length in simulated seconds (a compressed "day").
    """

    def __init__(
        self, rate: float, amplitude: float = 0.7, period: float = 60.0
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival_rate must be positive, got {rate}")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1), got {amplitude}"
            )
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self._rate = rate
        self._amplitude = amplitude
        self._period = period
        self._clock = 0.0

    @property
    def rate(self) -> float:
        return self._rate

    def next_arrival(self, rng: PCG64Stream) -> float:
        lam_max = self._rate * (1.0 + self._amplitude)
        while True:
            self._clock += rng.exponential(1.0 / lam_max)
            lam = self._rate * (
                1.0
                + self._amplitude * math.sin(2.0 * math.pi * self._clock / self._period)
            )
            if rng.random() * lam_max <= lam:
                return self._clock


class TraceArrivals(ArrivalProcess):
    """Replay recorded arrival timestamps.

    Consumes no randomness at all: two runs over the same trace see the
    same instants regardless of seed.  When ``cycle`` is set the trace
    wraps around, shifted by its span plus one mean inter-arrival gap, so
    arbitrarily long workloads can be driven from a short recording.

    Args:
        times: Strictly increasing, non-negative arrival instants.
        cycle: Wrap around when the trace is exhausted (default) instead
            of raising :class:`ConfigurationError`.
    """

    def __init__(self, times: Sequence[float], cycle: bool = True) -> None:
        trace = tuple(float(t) for t in times)
        if len(trace) < 2:
            raise ConfigurationError(
                f"trace needs at least 2 timestamps, got {len(trace)}"
            )
        if trace[0] < 0:
            raise ConfigurationError("trace timestamps must be non-negative")
        if any(b <= a for a, b in zip(trace, trace[1:])):
            raise ConfigurationError("trace timestamps must be strictly increasing")
        self._times = trace
        self._cycle = cycle
        # Span is origin-independent (epoch-stamped recordings must not
        # inflate it) and includes one trailing mean gap so cycled replays
        # keep the trace's empirical rate without double-counting endpoints.
        duration = trace[-1] - trace[0]
        self._span = duration + duration / (len(trace) - 1)
        self._index = 0
        self._offset = 0.0

    @classmethod
    def from_file(cls, path: str, cycle: bool = True) -> "TraceArrivals":
        """Load a trace file: one timestamp per line, ``#`` comments allowed."""
        times: list[float] = []
        with open(path) as fh:
            for line_number, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    times.append(float(text))
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{line_number}: not a timestamp: {text!r}"
                    ) from exc
        return cls(times, cycle=cycle)

    @property
    def rate(self) -> float:
        return len(self._times) / self._span

    def next_arrival(self, rng: PCG64Stream) -> float:
        if self._index >= len(self._times):
            if not self._cycle:
                raise ConfigurationError(
                    f"trace exhausted after {len(self._times)} arrivals "
                    "(pass cycle=True to wrap around)"
                )
            self._index = 0
            self._offset += self._span
        arrival = self._offset + self._times[self._index]
        self._index += 1
        return arrival


class MMPPSpec(ArrivalSpec):
    """On/off Markov-modulated Poisson arrivals (bursty traffic)."""

    __slots__ = ("burst_factor", "on_fraction", "mean_cycle")

    def __init__(
        self,
        burst_factor: float = 8.0,
        on_fraction: float = 0.25,
        mean_cycle: float = 10.0,
    ) -> None:
        object.__setattr__(self, "burst_factor", burst_factor)
        object.__setattr__(self, "on_fraction", on_fraction)
        object.__setattr__(self, "mean_cycle", mean_cycle)

    @property
    def kind(self) -> str:
        return "mmpp"

    def build(self, rate: float) -> MMPPArrivals:
        return MMPPArrivals(
            rate,
            burst_factor=self.burst_factor,
            on_fraction=self.on_fraction,
            mean_cycle=self.mean_cycle,
        )


class DiurnalSpec(ArrivalSpec):
    """Sinusoidally modulated Poisson arrivals (compressed day/night)."""

    __slots__ = ("amplitude", "period")

    def __init__(self, amplitude: float = 0.7, period: float = 60.0) -> None:
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "period", period)

    @property
    def kind(self) -> str:
        return "diurnal"

    def build(self, rate: float) -> DiurnalArrivals:
        return DiurnalArrivals(rate, amplitude=self.amplitude, period=self.period)


class TraceSpec(ArrivalSpec):
    """Trace replay, rescaled to the swept rate.

    ``times`` is the recorded trace; at build time it is scaled by
    ``empirical_rate / rate`` so the replay's mean rate matches the sweep
    point while preserving the trace's burst *shape*.
    """

    __slots__ = ("times", "cycle")

    def __init__(self, times: tuple[float, ...] = (), cycle: bool = True) -> None:
        # Validate eagerly so registry construction fails fast.
        TraceArrivals(times, cycle=cycle)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "cycle", cycle)

    @property
    def kind(self) -> str:
        return "trace"

    @classmethod
    def from_file(cls, path: str, cycle: bool = True) -> "TraceSpec":
        """Build a spec from a timestamp file (see
        :meth:`TraceArrivals.from_file`)."""
        replay = TraceArrivals.from_file(path, cycle=cycle)
        return cls(times=replay._times, cycle=cycle)

    def build(self, rate: float) -> TraceArrivals:
        if rate <= 0:
            raise ConfigurationError(f"arrival_rate must be positive, got {rate}")
        recorded = TraceArrivals(self.times, cycle=self.cycle).rate
        scale = recorded / rate
        # Shift to a zero origin before scaling: an epoch-stamped recording
        # must not turn into hours of dead air ahead of its first arrival.
        origin = self.times[0]
        return TraceArrivals(
            tuple((t - origin) * scale for t in self.times), cycle=self.cycle
        )


# ----------------------------------------------------------------------
# deadline policies
# ----------------------------------------------------------------------


class FixedOffsetDeadlines(DeadlinePolicy):
    """A flat patience window: ``deadline = arrival + offset`` seconds,
    independent of transaction length (e.g. a user-facing SLA)."""

    __slots__ = ("offset",)

    def __init__(self, offset: float = 0.5) -> None:
        if offset <= 0:
            raise ConfigurationError(f"deadline offset must be positive, got {offset}")
        object.__setattr__(self, "offset", offset)

    @property
    def kind(self) -> str:
        return "fixed-offset"

    def deadline_for(
        self, arrival: float, estimated: float, txn_class: TransactionClass
    ) -> Optional[float]:
        return arrival + self.offset


#: Per axis: its default kind (defined beside the axis interface) and
#: the class of every kind this module adds, by name.
_KINDS: dict[str, tuple[str, dict[str, type]]] = {
    "access": ("uniform", {
        "zipfian": ZipfianAccess,
        "hotspot": HotspotAccess,
        "partitioned": PartitionedAccess,
    }),
    "arrival": ("poisson", {
        "mmpp": MMPPSpec,
        "diurnal": DiurnalSpec,
        "trace": TraceSpec,
    }),
    "deadline": ("slack", {"fixed-offset": FixedOffsetDeadlines}),
}


def extension_kind(axis: str, kind: object) -> type:
    """The class of a non-default ``kind`` on ``axis``.

    ``axis`` is ``"access"``, ``"arrival"`` or ``"deadline"``.

    Raises:
        ConfigurationError: ``kind`` names no kind of the axis (the
            message lists every kind, the default included).
    """
    default, kinds = _KINDS[axis]
    try:
        return kinds[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown {axis} kind {kind!r}; choose from "
            f"{sorted([default, *kinds])}"
        ) from None
