"""Arrival processes: when transactions enter the system.

The paper's §4 baseline model uses homogeneous Poisson arrivals.  Real
systems rarely do: telecom front-ends see on/off bursts, OLTP load follows
the day, and production incidents are replayed from recorded traces.  Each
process models one such regime behind a single interface —
:meth:`ArrivalProcess.next_arrival` advances an internal clock and returns
the next absolute arrival instant, and
:meth:`ArrivalProcess.arrival_times` returns the next ``count`` of them
as one list (Poisson draws them in one batch).  This module holds the
interfaces and the Poisson default; the MMPP, diurnal and trace-replay
processes and their specs live in :mod:`repro.workloads.extensions`,
loaded when a scenario or payload names one.

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

from abc import ABC, abstractmethod
from itertools import accumulate
from typing import TYPE_CHECKING

from repro._record import FrozenRecord, asdict
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.engine.rng import PCG64Stream

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "PoissonArrivals",
    "PoissonSpec",
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


# ----------------------------------------------------------------------
# declarative specs (what the scenario registry stores)
# ----------------------------------------------------------------------


class ArrivalSpec(FrozenRecord, ABC):
    """Frozen, serializable description of an arrival process family.

    A spec is rate-free: the sweep's arrival-rate axis is supplied at
    :meth:`build` time, so one scenario works across the whole sweep.
    Concrete specs are frozen records (:mod:`repro._record`) whose
    fields are their parameters.
    """

    __slots__ = ()

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


class PoissonSpec(ArrivalSpec):
    """Homogeneous Poisson arrivals (the paper baseline)."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "poisson"

    def build(self, rate: float) -> PoissonArrivals:
        return PoissonArrivals(rate)


def arrival_spec_from_dict(payload: dict) -> ArrivalSpec:
    """Rebuild an :class:`ArrivalSpec` from its :meth:`~ArrivalSpec.to_dict`
    form, e.g. ``{"kind": "mmpp", "burst_factor": 8.0}``.

    Every kind but ``poisson`` lives in :mod:`repro.workloads.extensions`,
    imported here when the payload names one.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind == "poisson":
        spec_cls: type[ArrivalSpec] = PoissonSpec
    else:
        from repro.workloads.extensions import extension_kind

        spec_cls = extension_kind("arrival", kind)
    if "times" in data:
        data["times"] = tuple(data["times"])
    try:
        return spec_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} arrival parameters: {exc}") from exc
