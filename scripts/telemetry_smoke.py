"""CI smoke check: the telemetry subsystem end to end.

Two passes over a reduced paper-baseline grid:

1. **Trace-file integrity** — a traced ``run_sweep`` must leave a JSONL
   file where every line parses as either a ``cell_start`` marker or a
   schema-valid :class:`~repro.telemetry.events.TraceEvent`, with one
   marker per sweep cell and lanes restarting at 0 in each cell.
2. **Stored telemetry** — run records persisted by the sweep must carry a
   well-formed ``telemetry`` block (counter/gauge snapshot + wall-clock).

Per-protocol trace streams are pinned in tier-1 instead: the engine
trace tests compare every registered protocol's stream against digests
frozen in ``tests/golden/engine_reference.json``.

Usage::

    python scripts/telemetry_smoke.py [--transactions 200] [--rates 60,140]

Exit codes: 0 all passes clean, 1 any failure.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.experiments.runner import run_sweep
from repro.results import RunStore
from repro.telemetry.events import TraceEvent, is_marker, iter_trace
from repro.workloads.scenarios import get_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--rates", default="60,140")
    parser.add_argument("--seed", type=int, default=90_1995)
    args = parser.parse_args(argv)

    rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    scale = dict(
        num_transactions=args.transactions,
        warmup_commits=min(200, args.transactions // 10),
        replications=1,
        arrival_rates=rates,
        seed=args.seed,
        check_serializability=False,
    )
    config = get_scenario("paper-baseline").to_config(**scale)
    failures: list[str] = []

    # A traced, stored sweep; validate the file and the records.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "smoke.jsonl"
        store_path = Path(tmp) / "runs.jsonl"
        run_sweep(
            {"SCC-2S": "scc-2s"}, config,
            trace=trace_path, store=store_path,
        )

        markers, events, lane_floors, current = 0, 0, [], []
        for payload in iter_trace(trace_path):
            if is_marker(payload):
                if payload.get("marker") != "cell_start":
                    failures.append(f"unexpected marker: {payload}")
                if current:
                    lane_floors.append(min(current))
                current = []
                markers += 1
            else:
                TraceEvent.from_dict(payload)  # raises on schema drift
                events += 1
                if payload["lane"] is not None:
                    current.append(payload["lane"])
        if current:
            lane_floors.append(min(current))
        if markers != len(rates):
            failures.append(
                f"expected {len(rates)} cell_start markers, got {markers}"
            )
        if events == 0:
            failures.append("trace file holds no events")
        if lane_floors != [0] * len(lane_floors):
            failures.append(f"lanes do not restart per cell: {lane_floors}")
        print(f"pass 1: {events} trace events across {markers} cells validated")

        records = RunStore(store_path).records()
        for record in records:
            telemetry = record.telemetry
            if not telemetry or telemetry.get("schema") != 1:
                failures.append(
                    f"record {record.fingerprint[:12]}: bad telemetry block"
                )
                continue
            counters = telemetry["counters"]
            if counters["commits"] <= 0 or telemetry["wall_clock"] <= 0:
                failures.append(
                    f"record {record.fingerprint[:12]}: implausible "
                    f"telemetry {telemetry}"
                )
        print(f"pass 2: {len(records)} stored records carry telemetry")

    if failures:
        print(f"FAIL: {len(failures)} telemetry failure(s):")
        for line in failures[:20]:
            print(f"  {line}")
        return 1
    print("OK: trace files schema-valid, records telemetered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
