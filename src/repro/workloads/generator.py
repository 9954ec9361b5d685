"""Workload assembly: arrival process × access pattern × class mix.

A transaction is an arrival instant, a class pick, update coin-flips,
page selection and a deadline, with each axis pluggable.  Randomness
stays split across the named streams of
:class:`~repro.engine.rng.RandomStreams`:

* ``"arrivals"`` — consumed only by the :class:`ArrivalProcess`;
* ``"classes"`` — class-mix picks (only when the mix has >1 class);
* ``"writes"`` — update coin-flips, one per step;
* ``"pages"`` — consumed only by the :class:`AccessPattern`.

Because each axis owns its stream, :meth:`TransactionGenerator.generate`
draws the workload one axis at a time (every arrival, then every class
pick, every coin-flip, every transaction's pages), and the draws equal a
transaction-by-transaction loop's.  Changing one axis can never perturb
another — protocols are still compared "on the same workload", and with
the default axes (Poisson + uniform + class slack deadlines) the output is
bit-identical to the seed generator.

:func:`fixed_workload` builds the hand-crafted workloads of the
paper-figure vignettes instead (explicit programs and arrival times).
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Optional, Sequence

from repro._record import FrozenRecord, asdict
from repro.errors import ConfigurationError
from repro.txn.spec import Step, TransactionSpec
from repro.values.classes import TransactionClass
from repro.workloads.access import AccessPattern, UniformAccess
from repro.workloads.arrivals import ArrivalProcess, ArrivalSpec, PoissonSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.array import WorkloadTensors
    from repro.engine.rng import RandomStreams
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "DeadlinePolicy",
    "SlackDeadlines",
    "TransactionGenerator",
    "WorkloadSpec",
    "build_generator",
    "deadline_policy_from_dict",
    "fixed_workload",
]


class DeadlinePolicy(FrozenRecord, ABC):
    """Maps (arrival, execution estimate, class) to a deadline."""

    __slots__ = ()

    @abstractmethod
    def deadline_for(
        self, arrival: float, estimated: float, txn_class: TransactionClass
    ) -> Optional[float]:
        """Absolute deadline, or ``None`` to use the spec-builder default
        (the paper's per-class slack-factor rule)."""

    @property
    @abstractmethod
    def kind(self) -> str:
        """Registry key used in dict/JSON form."""

    def to_dict(self) -> dict:
        """Plain-dict form, invertible by :func:`deadline_policy_from_dict`."""
        return {"kind": self.kind, **asdict(self)}


class SlackDeadlines(DeadlinePolicy):
    """The paper's rule: ``deadline = arrival + slack * estimate``.

    With ``factor=None`` (default) each class's own ``slack_factor``
    applies — the seed behaviour.  A numeric ``factor`` overrides every
    class, tightening or loosening a whole scenario at once.
    """

    __slots__ = ("factor",)

    def __init__(self, factor: Optional[float] = None) -> None:
        if factor is not None and factor < 1.0:
            raise ConfigurationError(f"slack factor must be >= 1, got {factor}")
        object.__setattr__(self, "factor", factor)

    @property
    def kind(self) -> str:
        return "slack"

    def deadline_for(
        self, arrival: float, estimated: float, txn_class: TransactionClass
    ) -> Optional[float]:
        if self.factor is None:
            return None  # spec builder applies txn_class.slack_factor
        return arrival + self.factor * estimated


def deadline_policy_from_dict(payload: dict) -> DeadlinePolicy:
    """Rebuild a :class:`DeadlinePolicy` from its dict form, e.g.
    ``{"kind": "slack", "factor": 1.5}``.

    Every kind but ``slack`` lives in :mod:`repro.workloads.extensions`,
    imported here when the payload names one.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind == "slack":
        policy_cls: type[DeadlinePolicy] = SlackDeadlines
    else:
        from repro.workloads.extensions import extension_kind

        policy_cls = extension_kind("deadline", kind)
    try:
        return policy_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} deadline parameters: {exc}") from exc


class TransactionGenerator:
    """Draws one run's workload as :class:`~repro.engine.array.WorkloadTensors`.

    The composition point of the subsystem: an arrival process decides
    *when*, the class mix decides *what kind*, the access pattern decides
    *which pages*, and the deadline policy decides *by when*.  Like its
    arrival process, a generator is single-use: call :meth:`generate`
    once.

    Args:
        classes: Transaction classes to mix; selection probability is each
            class's ``weight`` normalized over the mix.
        num_pages: Database size.
        step_duration: Per-page service time used for the a-priori
            execution estimate that deadlines are derived from.
        streams: Named random streams (see :class:`RandomStreams`).
        arrivals: Arrival process (fresh instance; it carries the clock).
        access: Page-selection pattern (stateless, reusable).
        deadlines: Deadline policy (stateless, reusable).
    """

    def __init__(
        self,
        classes: Sequence[TransactionClass],
        num_pages: int,
        step_duration: float,
        streams: RandomStreams,
        arrivals: ArrivalProcess,
        access: Optional[AccessPattern] = None,
        deadlines: Optional[DeadlinePolicy] = None,
    ) -> None:
        if not classes:
            raise ConfigurationError("need at least one transaction class")
        if num_pages <= 0:
            raise ConfigurationError(f"num_pages must be positive, got {num_pages}")
        if step_duration <= 0:
            raise ConfigurationError(
                f"step_duration must be positive, got {step_duration}"
            )
        self._access = access if access is not None else UniformAccess()
        self._deadlines = deadlines if deadlines is not None else SlackDeadlines()
        for cls in classes:
            self._access.validate(num_pages, cls.num_steps)
        self._classes = list(classes)
        self._num_pages = num_pages
        self._step_duration = step_duration
        self._streams = streams
        self._arrivals = arrivals

    @property
    def arrival_rate(self) -> float:
        """Nominal mean arrival rate of the arrival process (txn/s)."""
        return self._arrivals.rate

    @property
    def step_duration(self) -> float:
        """Per-page service time the generator assumes for estimates."""
        return self._step_duration

    @property
    def access(self) -> AccessPattern:
        """The page-selection pattern in use."""
        return self._access

    @property
    def arrivals(self) -> ArrivalProcess:
        """The arrival process in use."""
        return self._arrivals

    def generate(self, count: int) -> WorkloadTensors:
        """Draw ``count`` transactions, ids ``0..count-1`` in arrival order.

        Each axis is drawn whole from its own stream: every arrival, every
        class pick, every write coin-flip, then each transaction's pages
        given its coin-flips.  Within a stream a batched draw consumes the
        generator as the same scalar draws one at a time do, so the
        workload equals a transaction-by-transaction loop's.
        """
        from repro.engine.array import WorkloadTensors
        from repro.engine.rng import pairwise_sum

        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        streams = self._streams
        classes = self._classes
        arrivals = self._arrivals.arrival_times(streams["arrivals"], count)
        if len(classes) == 1:
            class_indices = [0] * count
        else:
            weights = [float(c.weight) for c in classes]
            total = pairwise_sum(weights)
            class_indices = streams["classes"].choice(
                len(classes), size=count, p=tuple(w / total for w in weights)
            )
        num_steps = [c.num_steps for c in classes]
        step_offsets = [0, *accumulate(num_steps[c] for c in class_indices)]
        # One coin-flip per step, against its class's write probability.
        thresholds = [[c.write_probability] * c.num_steps for c in classes]
        write_flags = list(
            map(
                operator.lt,
                streams["writes"].random(step_offsets[-1]),
                chain.from_iterable(thresholds[c] for c in class_indices),
            )
        )
        pages: list[int] = []
        pages_rng = streams["pages"]
        select_pages = self._access.select_pages
        num_pages = self._num_pages
        for lo, hi in zip(step_offsets, step_offsets[1:]):
            pages += select_pages(pages_rng, num_pages, write_flags[lo:hi])
        return WorkloadTensors(
            arrivals,
            class_indices,
            step_offsets,
            pages,
            write_flags,
            classes,
            self._step_duration,
            self._deadlines,
        )


class WorkloadSpec(FrozenRecord):
    """Declarative workload shape: the three pluggable axes, rate-free.

    Stored on :class:`~repro.experiments.config.ExperimentConfig` (and by
    scenarios); instantiated per sweep point via :func:`build_generator`.
    The default spec reproduces the paper's §4 baseline exactly.
    """

    __slots__ = ("arrivals", "access", "deadlines")

    def __init__(
        self,
        arrivals: ArrivalSpec = PoissonSpec(),
        access: AccessPattern = UniformAccess(),
        deadlines: DeadlinePolicy = SlackDeadlines(),
    ) -> None:
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "access", access)
        object.__setattr__(self, "deadlines", deadlines)

    def to_dict(self) -> dict:
        """Nested plain-dict form of all three axes."""
        return {
            "arrivals": self.arrivals.to_dict(),
            "access": self.access.to_dict(),
            "deadlines": self.deadlines.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        """Rebuild from :meth:`to_dict` form; absent axes use defaults."""
        from repro.workloads.access import access_pattern_from_dict
        from repro.workloads.arrivals import arrival_spec_from_dict

        data = dict(payload)
        kwargs: dict = {}
        if "arrivals" in data:
            kwargs["arrivals"] = arrival_spec_from_dict(data.pop("arrivals"))
        if "access" in data:
            kwargs["access"] = access_pattern_from_dict(data.pop("access"))
        if "deadlines" in data:
            kwargs["deadlines"] = deadline_policy_from_dict(data.pop("deadlines"))
        if data:
            # A typo'd axis key must not silently fall back to the baseline.
            raise ConfigurationError(f"unknown workload keys: {sorted(data)}")
        return cls(**kwargs)


def build_generator(
    config: "ExperimentConfig",
    arrival_rate: float,
    streams: RandomStreams,
) -> TransactionGenerator:
    """Instantiate the generator one sweep cell runs on.

    Uses ``config.workload`` when set (scenario-driven runs) and the
    baseline :class:`WorkloadSpec` otherwise — the latter is bit-identical
    to the seed generator.
    """
    spec = config.workload if config.workload is not None else WorkloadSpec()
    return TransactionGenerator(
        classes=list(config.classes),
        num_pages=config.num_pages,
        step_duration=config.step_duration,
        streams=streams,
        arrivals=spec.arrivals.build(arrival_rate),
        access=spec.access,
        deadlines=spec.deadlines,
    )


def fixed_workload(
    programs: Sequence[Sequence[Step]],
    arrivals: Sequence[float],
    txn_class: TransactionClass,
    step_duration: float,
    deadlines: Optional[Sequence[Optional[float]]] = None,
) -> list[TransactionSpec]:
    """Build a hand-crafted workload (used by the paper-figure vignettes).

    Args:
        programs: One step list per transaction.
        arrivals: Arrival time per transaction (same length as programs).
        txn_class: Class applied to every transaction.
        step_duration: Per-page service time for deadline estimation.
        deadlines: Optional explicit deadline per transaction; ``None``
            entries fall back to the slack-factor rule.

    Returns:
        Specs with ids ``0..n-1`` in the given order.
    """
    if len(programs) != len(arrivals):
        raise ConfigurationError(
            f"{len(programs)} programs but {len(arrivals)} arrival times"
        )
    if deadlines is not None and len(deadlines) != len(programs):
        raise ConfigurationError(
            f"{len(programs)} programs but {len(deadlines)} deadlines"
        )
    specs = []
    for i, (program, arrival) in enumerate(zip(programs, arrivals)):
        deadline = deadlines[i] if deadlines is not None else None
        specs.append(
            TransactionSpec.build(
                txn_id=i,
                arrival=arrival,
                steps=list(program),
                txn_class=txn_class,
                step_duration=step_duration,
                deadline=deadline,
            )
        )
    return specs
