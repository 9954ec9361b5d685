"""Workload subsystem: arrival processes × access patterns × scenarios.

Decomposes workload generation into three pluggable axes — *when*
transactions arrive (:mod:`~repro.workloads.arrivals`), *which pages* they
touch (:mod:`~repro.workloads.access`), and *by when* they must finish
(deadline policies in :mod:`~repro.workloads.generator`) — plus a
declarative registry of named scenarios binding the axes to class mixes
(:mod:`~repro.workloads.scenarios`).  The default composition (Poisson +
uniform + per-class slack) is bit-identical to the seed generator.  Every
other kind lives in :mod:`~repro.workloads.extensions`, loaded when a
scenario or payload names one; all of them import from here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AccessPattern": "repro.workloads.access",
    "UniformAccess": "repro.workloads.access",
    "access_pattern_from_dict": "repro.workloads.access",
    "ArrivalProcess": "repro.workloads.arrivals",
    "ArrivalSpec": "repro.workloads.arrivals",
    "PoissonArrivals": "repro.workloads.arrivals",
    "PoissonSpec": "repro.workloads.arrivals",
    "arrival_spec_from_dict": "repro.workloads.arrivals",
    "DiurnalArrivals": "repro.workloads.extensions",
    "DiurnalSpec": "repro.workloads.extensions",
    "FixedOffsetDeadlines": "repro.workloads.extensions",
    "HotspotAccess": "repro.workloads.extensions",
    "MMPPArrivals": "repro.workloads.extensions",
    "MMPPSpec": "repro.workloads.extensions",
    "PartitionedAccess": "repro.workloads.extensions",
    "TraceArrivals": "repro.workloads.extensions",
    "TraceSpec": "repro.workloads.extensions",
    "ZipfianAccess": "repro.workloads.extensions",
    "DeadlinePolicy": "repro.workloads.generator",
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
