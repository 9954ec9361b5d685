"""Workload subsystem: arrival processes × access patterns × scenarios.

Decomposes workload generation into three pluggable axes — *when*
transactions arrive (:mod:`~repro.workloads.arrivals`), *which pages* they
touch (:mod:`~repro.workloads.access`), and *by when* they must finish
(deadline policies in :mod:`~repro.workloads.generator`) — plus a
declarative registry of named scenarios binding the axes to class mixes
(:mod:`~repro.workloads.scenarios`).  The default composition (Poisson +
uniform + per-class slack) is bit-identical to the seed generator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AccessPattern": "repro.workloads.access",
    "HotspotAccess": "repro.workloads.access",
    "PartitionedAccess": "repro.workloads.access",
    "UniformAccess": "repro.workloads.access",
    "ZipfianAccess": "repro.workloads.access",
    "access_pattern_from_dict": "repro.workloads.access",
    "ArrivalProcess": "repro.workloads.arrivals",
    "ArrivalSpec": "repro.workloads.arrivals",
    "DiurnalArrivals": "repro.workloads.arrivals",
    "DiurnalSpec": "repro.workloads.arrivals",
    "MMPPArrivals": "repro.workloads.arrivals",
    "MMPPSpec": "repro.workloads.arrivals",
    "PoissonArrivals": "repro.workloads.arrivals",
    "PoissonSpec": "repro.workloads.arrivals",
    "TraceArrivals": "repro.workloads.arrivals",
    "TraceSpec": "repro.workloads.arrivals",
    "arrival_spec_from_dict": "repro.workloads.arrivals",
    "DeadlinePolicy": "repro.workloads.generator",
    "FixedOffsetDeadlines": "repro.workloads.generator",
    "SlackDeadlines": "repro.workloads.generator",
    "TransactionGenerator": "repro.workloads.generator",
    "WorkloadSpec": "repro.workloads.generator",
    "build_generator": "repro.workloads.generator",
    "deadline_policy_from_dict": "repro.workloads.generator",
    "Scenario": "repro.workloads.scenarios",
    "all_scenarios": "repro.workloads.scenarios",
    "available_scenarios": "repro.workloads.scenarios",
    "get_scenario": "repro.workloads.scenarios",
    "register_scenario": "repro.workloads.scenarios",
    "scenario_from_dict": "repro.workloads.scenarios",
})
