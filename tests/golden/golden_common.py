"""Shared machinery for the committed simulation references.

Two references live beside this module:

* ``golden_reference.json`` — the golden determinism gate.  It runs two
  registered scenarios (the paper baseline and the adversarial
  flash-sale hotspot) through the full protocol roster at a
  reduced-but-meaningful scale and serializes every :class:`RunSummary`
  field with full float precision.  JSON round-trips Python floats
  exactly (shortest-repr), so equality against the committed reference
  is *bit-identical* equality of every metric.
* ``engine_reference.json`` — the engine reference: single cells
  recorded with the original object engine before it was removed.  It
  holds the per-cell summaries of every registered protocol and
  scenario, the summaries of a hand-built same-instant burst, and, per
  traced cell, a digest of the full typed trace stream plus the cell's
  counters and gauges.  The engine tests replay each cell and demand
  the recorded values exactly.

``scripts/gen_golden_reference.py`` writes both files.  Neither is
refreshed to absorb an unintended divergence: a change that moves a
number here changed what the simulation computes.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.experiments.runner import run_instrumented, run_sweep
from repro.metrics.stats import MetricsCollector
from repro.protocols.registry import available_protocols, protocol_spec
from repro.system.model import RTDBSystem
from repro.telemetry.tracer import MemoryTracer
from repro.txn.spec import Step, TransactionSpec
from repro.values.classes import TransactionClass
from repro.workloads.scenarios import available_scenarios, get_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reference.json")
ENGINE_REFERENCE_PATH = os.path.join(
    os.path.dirname(__file__), "engine_reference.json"
)

#: Scenarios covered by the golden gate: the CI-gated paper baseline and
#: the high-contention hotspot scenario (exercises heavy speculation,
#: restarts, and the deferral machinery under skewed access).
SCENARIOS = ("paper-baseline", "flash-sale-hotspot")

#: Reduced-scale sweep knobs.  Chosen so the whole payload computes in a
#: few seconds while still driving thousands of events per protocol
#: through every hot path (forking, blocking, replacement, commit).
NUM_TRANSACTIONS = 240
WARMUP_COMMITS = 24
REPLICATIONS = 1
ARRIVAL_RATES = (60.0, 140.0)


def golden_protocols() -> dict:
    """The protocol roster the golden gate sweeps.

    Covers every concurrency-control family in the library: two-shadow
    speculation (SCC-2S), value-cognizant deferred speculation (SCC-VW,
    at its registry-default period), optimistic broadcast commit
    (OCC-BC), wait-controlled OCC (WAIT-50), and locking with priority
    abort (2PL-PA).  Entries are registry spec strings with the
    reference's historical labels, so result keys stay stable.
    """
    return {
        "SCC-2S": "scc-2s",
        "SCC-VW": "scc-vw",
        "OCC-BC": "occ-bc",
        "WAIT-50": "wait-50",
        "2PL-PA": "2pl-pa",
    }


def compute_golden_payload(trace=None) -> dict:
    """Run the golden sweeps and return the JSON-serializable payload.

    Parameters
    ----------
    trace : str or os.PathLike, optional
        JSONL trace-file path; when given, the sweeps run fully traced.
        The payload must be identical regardless — tracing draws no
        randomness and perturbs no event order, and the telemetry
        regression test holds the gate on exactly that.
    """
    scenarios_out = {}
    for name in SCENARIOS:
        scenario = get_scenario(name)
        config = scenario.to_config(
            num_transactions=NUM_TRANSACTIONS,
            warmup_commits=WARMUP_COMMITS,
            replications=REPLICATIONS,
            arrival_rates=ARRIVAL_RATES,
        )
        results = run_sweep(golden_protocols(), config, trace=trace)
        summaries = {
            protocol: [
                [summary.to_dict() for summary in per_rate]
                for per_rate in sweep.replications
            ]
            for protocol, sweep in results.items()
        }
        scenarios_out[name] = {
            "arrival_rates": list(ARRIVAL_RATES),
            "summaries": summaries,
        }
    return {
        "schema": 1,
        "scale": {
            "num_transactions": NUM_TRANSACTIONS,
            "warmup_commits": WARMUP_COMMITS,
            "replications": REPLICATIONS,
            "arrival_rates": list(ARRIVAL_RATES),
        },
        "scenarios": scenarios_out,
    }


# ----------------------------------------------------------------------
# engine reference
# ----------------------------------------------------------------------

#: Scenario-config overrides per cell set of the engine reference.  A
#: cell is ``(scenario, protocol spec string, arrival rate, replication)``.
CELL_SCALES = {
    # Per-cell summaries (tests/engine/test_engine_parity.py).
    "summaries": {
        "num_transactions": 120,
        "warmup_commits": 12,
        "replications": 1,
        "check_serializability": False,
    },
    # Traced cells of tests/engine/test_trace_parity.py.
    "trace-parity": {
        "num_transactions": 100,
        "warmup_commits": 10,
        "replications": 1,
        "check_serializability": False,
    },
    # Traced cells scripts/telemetry_smoke.py diffed across engines at
    # CI's arguments (--transactions 200, default rates and seed).
    "telemetry-smoke": {
        "num_transactions": 200,
        "warmup_commits": 20,
        "replications": 1,
        "arrival_rates": [60.0, 140.0],
        "seed": 901995,
        "check_serializability": False,
    },
}


def reference_cells() -> dict[str, list[tuple[str, str, float, int]]]:
    """The cells of each set in :data:`CELL_SCALES`, in recording order."""
    protocols = available_protocols()
    return {
        "summaries": (
            [("paper-baseline", name, 120.0, 0) for name in protocols]
            + [(name, "scc-2s", 100.0, 1) for name in available_scenarios()]
            + [("flash-sale-hotspot", "2pl-pa", 160.0, 0)]
        ),
        "trace-parity": [
            (scenario, name, 120.0, 0)
            for scenario in ("paper-baseline", "flash-sale-hotspot")
            for name in ("scc-2s", "scc-vw", "2pl-pa")
        ],
        "telemetry-smoke": [
            ("paper-baseline", name, 140.0, 0) for name in protocols
        ],
    }


def cell_config(cell_set: str, scenario: str):
    """The :class:`ExperimentConfig` a reference cell runs under."""
    return get_scenario(scenario).to_config(**CELL_SCALES[cell_set])


def cell_key(scenario: str, protocol: str, rate: float, replication: int) -> str:
    """The JSON key of one reference cell."""
    return f"{scenario}|{protocol}|{rate!r}|{replication}"


def run_cell_summary(
    cell_set: str, scenario: str, protocol: str, rate: float, replication: int
) -> dict:
    """One cell's summary as a JSON-normalized dict."""
    summary, _ = run_instrumented(
        protocol_spec(protocol),
        cell_config(cell_set, scenario),
        arrival_rate=rate,
        replication=replication,
    )
    return json.loads(json.dumps(summary.to_dict()))


def trace_digest(stream: list[dict]) -> str:
    """sha256 of a trace stream's canonical JSON form."""
    return hashlib.sha256(
        json.dumps(stream, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_cell_trace(
    cell_set: str, scenario: str, protocol: str, rate: float, replication: int
) -> dict:
    """One traced cell: event count, stream digest, counters and gauges."""
    tracer = MemoryTracer()
    _, telemetry = run_instrumented(
        protocol_spec(protocol),
        cell_config(cell_set, scenario),
        arrival_rate=rate,
        replication=replication,
        tracer=tracer,
    )
    stream = tracer.dicts()
    return json.loads(json.dumps({
        "events": len(stream),
        "sha256": trace_digest(stream),
        "counters": telemetry["counters"],
        "gauges": telemetry["gauges"],
    }))


#: Pages of the hand-built burst schedules.
BURST_PAGES = 24

BURST_CLASS = TransactionClass(
    name="burst",
    num_steps=4,
    write_probability=0.25,
    slack_factor=8.0,
)

#: Three same-instant waves over a hot page set: wave 0 is a
#: 6-transaction simultaneous burst on overlapping read/write programs,
#: wave 1 lands while wave 0's shadows are mid-flight, wave 2 arrives as
#: wave 1 commits.  Rows are ``(arrival, ((page, is_write), ...))``.
ADVERSARIAL_BURST = (
    [(0.0, ((0, True), (1, False), (2, False))) for _ in range(3)]
    + [(0.0, ((1, True), (0, False), (3, False))) for _ in range(3)]
    + [(0.02, ((0, False), (1, True), (2, True))) for _ in range(4)]
    + [(0.15, ((2, False), (3, True), (0, False))) for _ in range(4)]
)


def build_burst_specs(schedule) -> list[TransactionSpec]:
    """Materialize ``(arrival, ((page, is_write), ...))`` rows as specs."""
    return [
        TransactionSpec.build(
            txn_id=txn_id,
            arrival=arrival,
            steps=[Step(page, is_write) for page, is_write in steps],
            txn_class=BURST_CLASS,
            step_duration=0.006,
        )
        for txn_id, (arrival, steps) in enumerate(schedule)
    ]


def burst_system(protocol, resources=None) -> RTDBSystem:
    """A history-free, warmup-free system sized for the burst schedules."""
    return RTDBSystem(
        protocol=protocol,
        num_pages=BURST_PAGES,
        resources=resources,
        metrics=MetricsCollector(warmup_commits=0),
        record_history=False,
    )


def run_burst_summary(protocol_name: str) -> dict:
    """:data:`ADVERSARIAL_BURST` under one protocol, JSON-normalized."""
    system = burst_system(protocol_spec(protocol_name)())
    system.load_workload(build_burst_specs(ADVERSARIAL_BURST))
    system.run()
    return json.loads(json.dumps(system.metrics.summary().to_dict()))


def compute_engine_reference() -> dict:
    """Record every engine-reference cell and return the payload."""
    cells = reference_cells()
    return {
        "schema": 1,
        "scales": CELL_SCALES,
        "summaries": {
            cell_key(*cell): run_cell_summary("summaries", *cell)
            for cell in cells["summaries"]
        },
        "bursts": {
            name: run_burst_summary(name) for name in available_protocols()
        },
        "traces": {
            cell_set: {
                cell_key(*cell): run_cell_trace(cell_set, *cell)
                for cell in cells[cell_set]
            }
            for cell_set in ("trace-parity", "telemetry-smoke")
        },
    }


def load_engine_reference() -> dict:
    """The committed engine reference."""
    with open(ENGINE_REFERENCE_PATH) as fh:
        return json.load(fh)
