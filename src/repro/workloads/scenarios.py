"""Declarative scenario registry: named, reusable workload definitions.

A :class:`Scenario` binds the three workload axes (arrival process, access
pattern, deadline policy) to a transaction-class mix and database size —
everything `run_sweep` needs besides the protocol set and scale knobs.
Scenarios are frozen and serializable to plain dicts (JSON/YAML-style), so
they can live in code, config files, or a spec file's ``"scenario"`` key
(``repro run spec.json``).

Registered scenarios (see SCENARIOS.md for the full catalogue):

* ``paper-baseline``     — the §4 baseline; bit-identical to the seed path.
* ``paper-two-class``    — the Figure 14(b) critical/routine two-class mix.
* ``bursty-telecom``     — MMPP on/off bursts over the Fig 14(b) class mix.
* ``flash-sale-hotspot`` — 80% of accesses on 10% of pages, flat deadlines.
* ``diurnal-oltp``       — sinusoidal load envelope over a Zipfian tail.
* ``trace-replay``       — recorded bursty trace, split read/write regions.

The last four use kinds beyond each axis's paper default, so each is
built, and :mod:`repro.workloads.extensions` loaded, on its first
lookup; a process running only the paper's scenarios never loads them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro._record import FrozenRecord, replace
from repro.errors import ConfigurationError
from repro.experiments.config import (
    DEFAULT_ARRIVAL_RATES,
    ExperimentConfig,
    baseline_class,
    two_class_config,
)
from repro.values.classes import TransactionClass
from repro.workloads.access import (
    AccessPattern,
    UniformAccess,
    access_pattern_from_dict,
)
from repro.workloads.arrivals import (
    ArrivalSpec,
    PoissonSpec,
    arrival_spec_from_dict,
)
from repro.workloads.generator import (
    DeadlinePolicy,
    SlackDeadlines,
    WorkloadSpec,
    deadline_policy_from_dict,
)

__all__ = [
    "Scenario",
    "all_scenarios",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_from_dict",
]


class Scenario(FrozenRecord):
    """A named workload: the full recipe minus protocols and scale.

    Attributes:
        name: Registry key (a spec file's ``"scenario"`` value).
        description: One-paragraph story of the modelled regime.
        arrivals: Arrival-process family (rate supplied per sweep point).
        access: Page-selection pattern.
        classes: Transaction-class mix.
        deadlines: Deadline policy.
        num_pages: Database size.
        arrival_rates: Default sweep axis (overridable at run time).
        stresses: Which protocols/mechanisms the scenario is designed to
            stress — documentation surfaced by the CLI listing.
    """

    __slots__ = (
        "name",
        "description",
        "arrivals",
        "access",
        "classes",
        "deadlines",
        "num_pages",
        "arrival_rates",
        "stresses",
    )

    def __init__(
        self,
        name: str,
        description: str,
        arrivals: ArrivalSpec = PoissonSpec(),
        access: AccessPattern = UniformAccess(),
        classes: tuple[TransactionClass, ...] = (baseline_class(),),
        deadlines: DeadlinePolicy = SlackDeadlines(),
        num_pages: int = 1000,
        arrival_rates: tuple[float, ...] = DEFAULT_ARRIVAL_RATES,
        stresses: str = "",
    ) -> None:
        if not name:
            raise ConfigurationError("scenario needs a name")
        if not classes:
            raise ConfigurationError(
                f"scenario {name!r} needs at least one transaction class"
            )
        for cls in classes:
            access.validate(num_pages, cls.num_steps)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "access", access)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "deadlines", deadlines)
        object.__setattr__(self, "num_pages", num_pages)
        object.__setattr__(self, "arrival_rates", arrival_rates)
        object.__setattr__(self, "stresses", stresses)

    def workload_spec(self) -> WorkloadSpec:
        """The three pluggable axes as an :class:`WorkloadSpec`."""
        return WorkloadSpec(
            arrivals=self.arrivals, access=self.access, deadlines=self.deadlines
        )

    def to_config(self, **overrides) -> ExperimentConfig:
        """An :class:`ExperimentConfig` running this scenario.

        Keyword overrides pass through to the config (e.g.
        ``num_transactions=200, replications=1`` for smoke runs).
        """
        params: dict = {
            "classes": self.classes,
            "num_pages": self.num_pages,
            "arrival_rates": self.arrival_rates,
            "workload": self.workload_spec(),
        }
        params.update(overrides)
        return ExperimentConfig(**params)

    def to_dict(self) -> dict:
        """Plain-dict (JSON/YAML-style) form, invertible by
        :func:`scenario_from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "arrivals": self.arrivals.to_dict(),
            "access": self.access.to_dict(),
            "classes": [cls.to_dict() for cls in self.classes],
            "deadlines": self.deadlines.to_dict(),
            "num_pages": self.num_pages,
            "arrival_rates": list(self.arrival_rates),
            "stresses": self.stresses,
        }


#: Type (and its name for error messages) each scenario key must carry.
_FIELD_TYPES: dict[str, tuple[Any, str]] = {
    "name": (str, "a string"),
    "description": (str, "a string"),
    "arrivals": (Mapping, "a dict"),
    "access": (Mapping, "a dict"),
    "deadlines": (Mapping, "a dict"),
    "classes": ((list, tuple), "a list"),
    "arrival_rates": ((list, tuple), "a list of numbers"),
    "num_pages": (int, "an integer"),
    "stresses": (str, "a string"),
}


def _check_field_types(data: Mapping) -> None:
    # JSON true/false are Python ints, but never a page count or a rate.
    for key, (types, expected) in _FIELD_TYPES.items():
        if key not in data:
            continue
        value = data[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigurationError(
                f"scenario {key!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    for rate in data.get("arrival_rates", ()):
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ConfigurationError(
                "scenario 'arrival_rates' must be a list of numbers, "
                f"got {rate!r} in it"
            )


def scenario_from_dict(payload: dict) -> Scenario:
    """Build a :class:`Scenario` from its dict form.

    Only ``name`` and ``description`` are required; omitted axes fall back
    to the paper baseline (Poisson, uniform, per-class slack deadlines).

    Raises:
        ConfigurationError: A missing or unknown key, or a value of the
            wrong type (the message names the key).
    """
    data = dict(payload)
    _check_field_types(data)
    try:
        name = data.pop("name")
        description = data.pop("description")
    except KeyError as exc:
        raise ConfigurationError(
            f"scenario dict is missing required key {exc.args[0]!r}"
        ) from exc
    kwargs: dict = {"name": name, "description": description}
    if "arrivals" in data:
        kwargs["arrivals"] = arrival_spec_from_dict(data.pop("arrivals"))
    if "access" in data:
        kwargs["access"] = access_pattern_from_dict(data.pop("access"))
    if "deadlines" in data:
        kwargs["deadlines"] = deadline_policy_from_dict(data.pop("deadlines"))
    if "classes" in data:
        try:
            kwargs["classes"] = tuple(
                TransactionClass(**cls) for cls in data.pop("classes")
            )
        except TypeError as exc:
            raise ConfigurationError(f"bad class parameters: {exc}") from exc
    if "arrival_rates" in data:
        kwargs["arrival_rates"] = tuple(data.pop("arrival_rates"))
    for key in ("num_pages", "stresses"):
        if key in data:
            kwargs[key] = data.pop(key)
    if data:
        raise ConfigurationError(
            f"unknown scenario keys: {sorted(data)}"
        )
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Scenario] = {}

#: Built-in scenarios that use a kind beyond an axis's default, by name:
#: each is built (and :mod:`repro.workloads.extensions` loaded) on its
#: first lookup, unless a registration replaced it first.
_ON_LOOKUP: dict[str, Callable[[], Scenario]] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    name = scenario.name
    if not replace and (name in _REGISTRY or name in _ON_LOOKUP):
        raise ConfigurationError(
            f"scenario {name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[name] = scenario
    _ON_LOOKUP.pop(name, None)
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name.

    Raises:
        ConfigurationError: Unknown name (the message lists the registry).
    """
    scenario = _REGISTRY.get(name)
    if scenario is None:
        build = _ON_LOOKUP.get(name)
        if build is None:
            raise ConfigurationError(
                f"unknown scenario {name!r}; registered: "
                f"{', '.join(available_scenarios())}"
            )
        # Two threads may both build it; the first one stored wins.
        scenario = _REGISTRY.setdefault(name, build())
    return scenario


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted({*_REGISTRY, *_ON_LOOKUP}))


def all_scenarios() -> Iterator[Scenario]:
    """Iterate registered scenarios in name order."""
    for name in available_scenarios():
        yield get_scenario(name)


# ----------------------------------------------------------------------
# the built-in catalogue (documented in SCENARIOS.md)
# ----------------------------------------------------------------------


def _telecom_classes() -> tuple[TransactionClass, ...]:
    """The Figure 14(b) two-class mix under telecom names.

    Derived from :func:`two_class_config` so the scenario can never drift
    from the figure's parameters: critical-long -> fraud-check,
    routine-short -> usage-update.
    """
    critical_long, routine_short = two_class_config().classes
    return (
        replace(critical_long, name="fraud-check"),
        replace(routine_short, name="usage-update"),
    )


def _flash_sale_classes() -> tuple[TransactionClass, ...]:
    import math

    return (
        TransactionClass(
            name="checkout",
            num_steps=12,
            write_probability=0.5,
            slack_factor=1.5,
            value=4.0,
            alpha_degrees=math.degrees(math.atan(4.0)),
            weight=0.2,
        ),
        TransactionClass(
            name="browse",
            num_steps=16,
            write_probability=0.05,
            slack_factor=2.0,
            value=0.5,
            alpha_degrees=math.degrees(math.atan(0.5)),
            weight=0.8,
        ),
    )


def _synthetic_bursty_trace(cycles: int = 20) -> tuple[float, ...]:
    """A deterministic unit-mean-rate on/off trace: per 20 s cycle, 16
    arrivals packed into the first 4 s (4× rate) and 4 spread over the
    remaining 16 s (0.25× rate)."""
    times: list[float] = []
    for cycle in range(cycles):
        base = 20.0 * cycle
        times.extend(base + i * 0.25 for i in range(16))
        times.extend(base + 4.0 + i * 4.0 for i in range(4))
    return tuple(times)


register_scenario(
    Scenario(
        name="paper-baseline",
        description=(
            "The paper's §4 baseline model: Poisson arrivals, uniform page "
            "selection over 1,000 pages, 16 accesses per transaction with "
            "25% updates, slack-factor-2 deadlines.  Bit-identical to the "
            "pre-subsystem default path under the same seed."
        ),
        stresses=(
            "The reference point every figure is calibrated against; "
            "moderate, evenly spread conflicts."
        ),
    )
)

register_scenario(
    Scenario(
        name="paper-two-class",
        description=(
            "The paper's Figure 14(b) two-class mix under the baseline "
            "workload axes: 10% critical-long transactions (32 pages, "
            "slack 1.5, value 5.5, steep penalty gradient) against 90% "
            "routine-short ones (14 pages, value 0.5, shallow gradient).  "
            "Same Poisson/uniform/slack axes as paper-baseline, so its "
            "configs are bit-identical to two_class_config()."
        ),
        classes=two_class_config().classes,
        stresses=(
            "Value discrimination: protocols must spend resources on the "
            "rare high-value class without starving the routine bulk — "
            "the setting where value-cognizant deferment (SCC-VW) "
            "separates from value-blind speculation."
        ),
    )
)


def _bursty_telecom() -> Scenario:
    from repro.workloads.extensions import MMPPSpec

    return Scenario(
        name="bursty-telecom",
        description=(
            "Telecom billing under on/off call storms: a two-state MMPP "
            "(bursts at 8x the quiet rate, 25% duty cycle, 10 s cycles) "
            "over the Figure 14(b) fraud-check/usage-update class mix."
        ),
        arrivals=MMPPSpec(burst_factor=8.0, on_fraction=0.25, mean_cycle=10.0),
        classes=_telecom_classes(),
        stresses=(
            "Transient overload: restart-based protocols (OCC-BC) pay for "
            "bursts twice; value-cognizant deferment (SCC-VW) should "
            "protect fraud-checks through the storms."
        ),
    )


def _flash_sale_hotspot() -> Scenario:
    from repro.workloads.extensions import FixedOffsetDeadlines, HotspotAccess

    return Scenario(
        name="flash-sale-hotspot",
        description=(
            "A retail flash sale: 80% of accesses hammer the 10% of pages "
            "holding sale inventory; write-heavy checkouts race read-mostly "
            "browsing, and every user has the same flat 0.4 s patience "
            "window regardless of transaction length."
        ),
        access=HotspotAccess(hot_page_fraction=0.1, hot_access_fraction=0.8),
        classes=_flash_sale_classes(),
        deadlines=FixedOffsetDeadlines(offset=0.4),
        stresses=(
            "Hotspot write-write conflicts: blocking protocols (2PL-PA) "
            "convoy on the hot pages; speculative shadows (SCC-kS) and "
            "priority waits (WAIT-50) are the contenders."
        ),
    )


def _diurnal_oltp() -> Scenario:
    from repro.workloads.extensions import DiurnalSpec, ZipfianAccess

    return Scenario(
        name="diurnal-oltp",
        description=(
            "An OLTP day compressed to a 60 s sinusoidal cycle (peak load "
            "1.7x the mean, trough 0.3x) over a Zipfian(0.8) access tail — "
            "the workload realism standard stress: non-stationary rate plus "
            "popularity skew."
        ),
        arrivals=DiurnalSpec(amplitude=0.7, period=60.0),
        access=ZipfianAccess(theta=0.8),
        stresses=(
            "Protocols tuned at the mean rate must survive the peak; "
            "Zipfian head pages keep a persistent conflict core even in "
            "the trough."
        ),
    )


def _trace_replay() -> Scenario:
    from repro.workloads.extensions import PartitionedAccess, TraceSpec

    return Scenario(
        name="trace-replay",
        description=(
            "Replays a recorded bursty arrival trace (4x-rate spikes, 20 s "
            "cycles; rescaled to the swept rate) over split page regions: "
            "updates land in the write-hot quarter of the database, pure "
            "reads in the rest."
        ),
        arrivals=TraceSpec(times=_synthetic_bursty_trace()),
        access=PartitionedAccess(write_region_fraction=0.25),
        stresses=(
            "Deterministic arrival spikes with region-local writes: "
            "read-only work should sail through while writers serialize; "
            "rerunning the trace isolates protocol variance from arrival "
            "variance."
        ),
    )


_ON_LOOKUP.update({
    "bursty-telecom": _bursty_telecom,
    "flash-sale-hotspot": _flash_sale_hotspot,
    "diurnal-oltp": _diurnal_oltp,
    "trace-replay": _trace_replay,
})
