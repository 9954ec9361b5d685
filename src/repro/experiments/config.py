"""Experiment configuration (the paper's §4 baseline model).

Paper parameters: a database of 1,000 pages; 16 pages accessed per
transaction, each updated with probability 25%; deadline slack factor 2;
EDF priorities; soft deadlines; runs of at least 4,000 completed
transactions; 90% confidence intervals.

The paper does not state its per-page service time; we calibrate 8 ms
(1 ms CPU + 7 ms I/O, i.e. a 128 ms average transaction) so the contention
regime over the 10-200 tps arrival sweep brackets the paper's reported
operating points (SCC-2S ≈ 1% missed at 70 tps; the WAIT-50-vs-OCC-BC
crossover above ~125 tps; 2PL-PA collapsing first and hardest).
EXPERIMENTS.md records the shape agreement point by point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro._record import FrozenRecord, replace
from repro.errors import ConfigurationError
from repro.values.classes import TransactionClass

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.workloads.generator import WorkloadSpec


#: The default arrival-rate sweep axis (tps), shared by scenarios.
DEFAULT_ARRIVAL_RATES = (10, 25, 50, 75, 100, 125, 150, 175, 200)


class ExperimentConfig(FrozenRecord):
    """Everything needed to run one experiment sweep.

    Attributes mirror the paper's baseline model; see module docstring.
    ``workload`` is the workload shape (arrival process, access pattern,
    deadline policy); ``None`` means the paper baseline, bit-identical to
    the seed generator, and scenario-driven configs
    (:mod:`repro.workloads.scenarios`) set it.  ``num_servers`` sizes a
    finite pool of identical CPU+disk servers
    (:class:`~repro.system.resources.FiniteResources`, ablation A2);
    ``None`` means infinite resources, the paper's model.
    """

    __slots__ = (
        "classes",
        "num_pages",
        "cpu_time",
        "io_time",
        "num_transactions",
        "warmup_commits",
        "replications",
        "seed",
        "arrival_rates",
        "check_serializability",
        "confidence_level",
        "workload",
        "num_servers",
    )

    def __init__(
        self,
        classes: tuple[TransactionClass, ...],
        num_pages: int = 1000,
        cpu_time: float = 0.001,
        io_time: float = 0.007,
        num_transactions: int = 4000,
        warmup_commits: int = 200,
        replications: int = 3,
        seed: int = 90_1995,
        arrival_rates: tuple[float, ...] = DEFAULT_ARRIVAL_RATES,
        check_serializability: bool = True,
        confidence_level: float = 0.90,
        workload: Optional["WorkloadSpec"] = None,
        num_servers: Optional[int] = None,
    ) -> None:
        if not classes:
            raise ConfigurationError("config needs at least one transaction class")
        if warmup_commits < 0:
            raise ConfigurationError(
                f"warmup_commits must be a non-negative integer, got {warmup_commits}"
            )
        if num_transactions <= warmup_commits:
            raise ConfigurationError(
                f"num_transactions ({num_transactions}) must exceed "
                f"warmup_commits ({warmup_commits})"
            )
        if replications < 1:
            raise ConfigurationError("need at least one replication")
        if seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {seed}"
            )
        check_arrival_rates(arrival_rates)
        if num_servers is not None and (
            not isinstance(num_servers, int)
            or isinstance(num_servers, bool)
            or num_servers < 1
        ):
            raise ConfigurationError(
                f"num_servers must be a positive integer or None (infinite "
                f"resources), got {num_servers!r}"
            )
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "num_pages", num_pages)
        object.__setattr__(self, "cpu_time", cpu_time)
        object.__setattr__(self, "io_time", io_time)
        object.__setattr__(self, "num_transactions", num_transactions)
        object.__setattr__(self, "warmup_commits", warmup_commits)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "arrival_rates", arrival_rates)
        object.__setattr__(self, "check_serializability", check_serializability)
        object.__setattr__(self, "confidence_level", confidence_level)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "num_servers", num_servers)

    @property
    def step_duration(self) -> float:
        """Per-page service time (CPU + I/O)."""
        return self.cpu_time + self.io_time

    def scaled(
        self,
        num_transactions: int | None = None,
        replications: int | None = None,
        arrival_rates: Sequence[float] | None = None,
        warmup_commits: int | None = None,
    ) -> "ExperimentConfig":
        """A copy with reduced scale (used by smoke tests and benchmarks)."""
        updates: dict = {}
        if num_transactions is not None:
            updates["num_transactions"] = num_transactions
        if replications is not None:
            updates["replications"] = replications
        if arrival_rates is not None:
            updates["arrival_rates"] = tuple(arrival_rates)
        if warmup_commits is not None:
            updates["warmup_commits"] = warmup_commits
        return replace(self, **updates)


def check_arrival_rates(rates: Sequence[float]) -> None:
    """Refuse a rate axis no cell can run: empty, or a rate not finite and > 0.

    Raises
    ------
    ConfigurationError
        On an empty axis or a rate (tps) that is not a positive finite
        number.
    """
    if not rates:
        raise ConfigurationError("need at least one arrival rate")
    for rate in rates:
        try:
            valid = rate > 0 and math.isfinite(rate)
        except TypeError:
            valid = False
        if not valid:
            raise ConfigurationError(
                f"arrival rates must be positive finite numbers (tps), "
                f"got {rate!r}"
            )


def baseline_class(alpha_degrees: float = 45.0, value: float = 1.0) -> TransactionClass:
    """The single baseline-model transaction class."""
    return TransactionClass(
        name="baseline",
        num_steps=16,
        write_probability=0.25,
        slack_factor=2.0,
        value=value,
        alpha_degrees=alpha_degrees,
    )


def baseline_config(**overrides) -> ExperimentConfig:
    """The paper's baseline model (Figures 13-15a: one class, 45° gradient)."""
    classes = overrides.pop("classes", (baseline_class(),))
    return ExperimentConfig(classes=tuple(classes), **overrides)


def two_class_config(**overrides) -> ExperimentConfig:
    """The Figure 14(b) two-class mix.

    Class 1 (10% of transactions): long (32 pages), tight deadlines
    (slack 1.5), high value (5.5), steep penalty gradient (tan α = 5.5).
    Class 2 (90%): short (14 pages), value 0.5, shallow gradient
    (tan α = 0.5).  The mix-weighted mean value function matches the
    one-class setup of Figure 14(a): mean value 1.0, mean gradient 1.0
    (45°), mean length 15.8 ≈ 16 pages.
    """
    import math

    class_one = TransactionClass(
        name="critical-long",
        num_steps=32,
        write_probability=0.25,
        slack_factor=1.5,
        value=5.5,
        alpha_degrees=math.degrees(math.atan(5.5)),
        weight=0.1,
    )
    class_two = TransactionClass(
        name="routine-short",
        num_steps=14,
        write_probability=0.25,
        slack_factor=2.0,
        value=0.5,
        alpha_degrees=math.degrees(math.atan(0.5)),
        weight=0.9,
    )
    overrides.pop("classes", None)
    return ExperimentConfig(classes=(class_one, class_two), **overrides)
