"""Arrival processes: when transactions enter the system.

The paper's §4 baseline model uses homogeneous Poisson arrivals.  Real
systems rarely do: telecom front-ends see on/off bursts, OLTP load follows
the day, and production incidents are replayed from recorded traces.  Each
class here models one such regime behind a single interface —
:meth:`ArrivalProcess.next_arrival` advances an internal clock and returns
the next absolute arrival instant, and
:meth:`ArrivalProcess.arrival_times` returns the next ``count`` of them
as one list (Poisson draws them in one batch).

Every process draws all of its randomness from the single stream it is
handed (the ``"arrivals"`` stream of :class:`~repro.engine.rng.RandomStreams`),
so swapping the access pattern, class mix, or deadline policy can never
perturb arrival times — the variance-reduction discipline the runner's
protocol comparisons rely on.

Construction is split in two layers: a mutable *process* (holds the clock,
built fresh per run) and a frozen declarative *spec* (`PoissonSpec` etc.)
that the scenario registry stores, serializes to plain dicts, and
instantiates per swept arrival rate via :meth:`ArrivalSpec.build`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.engine.rng import PCG64Stream

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "DiurnalArrivals",
    "DiurnalSpec",
    "MMPPArrivals",
    "MMPPSpec",
    "PoissonArrivals",
    "PoissonSpec",
    "TraceArrivals",
    "TraceSpec",
    "arrival_spec_from_dict",
]


class ArrivalProcess(ABC):
    """A stream of absolute arrival instants.

    Instances are stateful (they carry the arrival clock) and therefore
    single-use: build a fresh process per simulation run.
    """

    @abstractmethod
    def next_arrival(self, rng: PCG64Stream) -> float:
        """Advance the clock and return the next absolute arrival time."""

    def arrival_times(self, rng: PCG64Stream, count: int) -> list[float]:
        """The next ``count`` arrival times, in order.

        Consumes ``rng`` exactly as ``count`` calls of
        :meth:`next_arrival` do; a process with a batched formulation
        overrides this with one that draws the same values.
        """
        return [self.next_arrival(rng) for _ in range(count)]

    @property
    @abstractmethod
    def rate(self) -> float:
        """Long-run mean arrival rate (transactions per second)."""


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals — the paper's baseline.

    Draws exactly one exponential inter-arrival per transaction, which
    keeps its stream consumption bit-identical to the seed generator.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival_rate must be positive, got {rate}")
        self._rate = rate
        self._clock = 0.0

    @property
    def rate(self) -> float:
        return self._rate

    def next_arrival(self, rng: PCG64Stream) -> float:
        self._clock += rng.exponential(1.0 / self._rate)
        return self._clock

    def arrival_times(self, rng: PCG64Stream, count: int) -> list[float]:
        # One exponential(size=count) draws what count scalar draws do,
        # and the running sum adds left to right, as next_arrival's clock
        # does.
        gaps = rng.exponential(1.0 / self._rate, size=count)
        if not count:
            return []
        gaps[0] += self._clock
        times = list(accumulate(gaps))
        self._clock = times[-1]
        return times


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


# ----------------------------------------------------------------------
# declarative specs (what the scenario registry stores)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSpec(ABC):
    """Frozen, serializable description of an arrival process family.

    A spec is rate-free: the sweep's arrival-rate axis is supplied at
    :meth:`build` time, so one scenario works across the whole sweep.
    """

    @abstractmethod
    def build(self, rate: float) -> ArrivalProcess:
        """Instantiate a fresh process targeting mean rate ``rate``."""

    @property
    @abstractmethod
    def kind(self) -> str:
        """Registry key used in dict/JSON form."""

    def to_dict(self) -> dict:
        """Plain-dict form (JSON/YAML-style), invertible by
        :func:`arrival_spec_from_dict`."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class PoissonSpec(ArrivalSpec):
    """Homogeneous Poisson arrivals (the paper baseline)."""

    @property
    def kind(self) -> str:
        return "poisson"

    def build(self, rate: float) -> PoissonArrivals:
        return PoissonArrivals(rate)


@dataclass(frozen=True)
class MMPPSpec(ArrivalSpec):
    """On/off Markov-modulated Poisson arrivals (bursty traffic)."""

    burst_factor: float = 8.0
    on_fraction: float = 0.25
    mean_cycle: float = 10.0

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


@dataclass(frozen=True)
class DiurnalSpec(ArrivalSpec):
    """Sinusoidally modulated Poisson arrivals (compressed day/night)."""

    amplitude: float = 0.7
    period: float = 60.0

    @property
    def kind(self) -> str:
        return "diurnal"

    def build(self, rate: float) -> DiurnalArrivals:
        return DiurnalArrivals(rate, amplitude=self.amplitude, period=self.period)


@dataclass(frozen=True)
class TraceSpec(ArrivalSpec):
    """Trace replay, rescaled to the swept rate.

    ``times`` is the recorded trace; at build time it is scaled by
    ``empirical_rate / rate`` so the replay's mean rate matches the sweep
    point while preserving the trace's burst *shape*.
    """

    times: tuple[float, ...] = ()
    cycle: bool = True

    def __post_init__(self) -> None:
        # Validate eagerly so registry construction fails fast.
        TraceArrivals(self.times, cycle=self.cycle)

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


_SPEC_KINDS: dict[str, type[ArrivalSpec]] = {
    "poisson": PoissonSpec,
    "mmpp": MMPPSpec,
    "diurnal": DiurnalSpec,
    "trace": TraceSpec,
}


def arrival_spec_from_dict(payload: dict) -> ArrivalSpec:
    """Rebuild an :class:`ArrivalSpec` from its :meth:`~ArrivalSpec.to_dict`
    form, e.g. ``{"kind": "mmpp", "burst_factor": 8.0}``."""
    data = dict(payload)
    kind = data.pop("kind", None)
    spec_cls = _SPEC_KINDS.get(kind)
    if spec_cls is None:
        raise ConfigurationError(
            f"unknown arrival kind {kind!r}; choose from {sorted(_SPEC_KINDS)}"
        )
    if "times" in data:
        data["times"] = tuple(data["times"])
    try:
        return spec_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} arrival parameters: {exc}") from exc
