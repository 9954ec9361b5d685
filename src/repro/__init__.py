"""repro — Value-cognizant Speculative Concurrency Control.

A complete, self-contained reproduction of *"Value-cognizant Speculative
Concurrency Control"* (Bestavros & Braoudakis, Boston University CS
TR-1995-005): a discrete-event simulated real-time database system, the
SCC protocol family (SCC-kS / SCC-2S / SCC-CB / SCC-DC / SCC-VW), the
paper's baselines (2PL-PA, OCC, OCC-BC, WAIT-50), transaction value
functions, and the full experiment harness regenerating every figure in
the paper's evaluation.

Quickstart (the declarative experiment API)::

    from repro import Experiment

    results = (
        Experiment.scenario("paper-baseline")
        .protocols("scc-2s", "occ-bc")
        .rates(50, 100)
        .transactions(1000)
        .replications(1)
        .run()
    )
    print(results["SCC-2S"].missed_ratio())

Protocols are named registry specs (``"scc-ks?k=3"`` parameterizes the
shadow budget — see ``repro.protocols.registry``); scenarios come from
the workload registry (``repro.workloads.scenarios``); and the whole
experiment serializes to JSON via ``ExperimentSpec`` for the CLI
(``repro run experiment.json``).  The lower-level building blocks
(``RTDBSystem``, ``WorkloadGenerator``, ``run_sweep``) remain public for
custom harnesses.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "History": "repro.analysis.history",
    "check_serializable": "repro.analysis.serializability",
    "serialization_order": "repro.analysis.serializability",
    "DeadlineAwareReplacement": "repro.core.replacement",
    "LatestBlockedFirstOut": "repro.core.replacement",
    "ValueAwareReplacement": "repro.core.replacement",
    "SCC2S": "repro.core.scc_2s",
    "SCCCB": "repro.core.scc_cb",
    "SCCDC": "repro.core.scc_dc",
    "SCCkS": "repro.core.scc_ks",
    "SCCVW": "repro.core.scc_vw",
    "figure3_table": "repro.core.shadow_counts",
    "RandomStreams": "repro.engine.rng",
    "Simulator": "repro.engine.simulator",
    "ConfigurationError": "repro.errors",
    "InvariantViolation": "repro.errors",
    "ProtocolError": "repro.errors",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "mean_confidence_interval": "repro.metrics.confidence",
    "MetricsCollector": "repro.metrics.stats",
    "RunSummary": "repro.metrics.stats",
    "Experiment": "repro.experiments.spec",
    "ExperimentSpec": "repro.experiments.spec",
    "BasicOCC": "repro.protocols.occ",
    "OCCBroadcastCommit": "repro.protocols.occ_bc",
    "ProtocolSpec": "repro.protocols.registry",
    "available_protocols": "repro.protocols.registry",
    "parse_protocol_spec": "repro.protocols.registry",
    "protocol_spec": "repro.protocols.registry",
    "register_protocol": "repro.protocols.registry",
    "SerialExecution": "repro.protocols.serial",
    "TwoPhaseLockingPA": "repro.protocols.twopl_pa",
    "Wait50": "repro.protocols.wait50",
    "RTDBSystem": "repro.system.model",
    "FiniteResources": "repro.system.resources",
    "InfiniteResources": "repro.system.resources",
    "WorkloadGenerator": "repro.txn.generator",
    "Step": "repro.txn.spec",
    "TransactionSpec": "repro.txn.spec",
    "TransactionClass": "repro.values.classes",
    "ValueFunction": "repro.values.value_function",
    "HotspotAccess": "repro.workloads.access",
    "PartitionedAccess": "repro.workloads.access",
    "UniformAccess": "repro.workloads.access",
    "ZipfianAccess": "repro.workloads.access",
    "DiurnalArrivals": "repro.workloads.arrivals",
    "MMPPArrivals": "repro.workloads.arrivals",
    "PoissonArrivals": "repro.workloads.arrivals",
    "TraceArrivals": "repro.workloads.arrivals",
    "TransactionGenerator": "repro.workloads.generator",
    "WorkloadSpec": "repro.workloads.generator",
    "Scenario": "repro.workloads.scenarios",
    "available_scenarios": "repro.workloads.scenarios",
    "get_scenario": "repro.workloads.scenarios",
    "register_scenario": "repro.workloads.scenarios",
    "scenario_from_dict": "repro.workloads.scenarios",
    "open_store": "repro.results.backends",
    "cell_fingerprint": "repro.results.fingerprint",
    "config_fingerprint": "repro.results.fingerprint",
    "RunRecord": "repro.results.record",
    "SQLiteRunStore": "repro.results.sqlite_store",
    "RunStore": "repro.results.store",
    "TraceEvent": "repro.telemetry.events",
    "read_trace": "repro.telemetry.events",
    "JsonlTracer": "repro.telemetry.tracer",
    "MemoryTracer": "repro.telemetry.tracer",
    "NullTracer": "repro.telemetry.tracer",
    "Tracer": "repro.telemetry.tracer",
    "GatewayApp": "repro.gateway.app",
    "CircuitBreaker": "repro.gateway.breaker",
    "GatewayClient": "repro.gateway.client",
    "GatewayError": "repro.gateway.client",
    "ClientQuotas": "repro.gateway.quotas",
    "QuotaExceeded": "repro.gateway.quotas",
    "GatewayServer": "repro.gateway.server",
})
