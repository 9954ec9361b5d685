"""CI smoke check: every registered scenario sweeps end to end.

Runs each scenario in the registry for a tiny sweep with ``workers=N``
(hosts claiming cells from the job board; the serial path is covered
per-scenario by the tier-1 suite), prints one summary row per scenario,
and additionally
asserts the subsystem's compatibility guarantee: the ``paper-baseline``
scenario produces summaries bit-identical to the pre-subsystem default
config under the same seed.

Usage::

    python scripts/scenario_smoke.py [--transactions 200] [--workers 4]

Exit codes: 0 all scenarios ran (and baseline matched), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.metrics.report import format_table
from repro.workloads.scenarios import all_scenarios, get_scenario

PROTOCOLS = {"SCC-2S": "scc-2s", "OCC-BC": "occ-bc", "SCC-DC": "scc-dc"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--rate", type=float, default=120.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=90_1995)
    args = parser.parse_args(argv)

    overrides = dict(
        num_transactions=args.transactions,
        warmup_commits=min(50, args.transactions // 10),
        replications=1,
        seed=args.seed,
        check_serializability=True,
    )

    rows = []
    started = time.perf_counter()
    for scenario in all_scenarios():
        config = scenario.to_config(**overrides)
        results = run_sweep(
            PROTOCOLS, config, arrival_rates=[args.rate], workers=args.workers
        )
        row = [scenario.name]
        for name in PROTOCOLS:
            summary = results[name].replications[0][0]
            row.append(f"{summary.missed_ratio:.1f}")
        rows.append(tuple(row))
    elapsed = time.perf_counter() - started

    print(
        format_table(
            ["scenario"] + [f"{name} missed %" for name in PROTOCOLS],
            rows,
            title=f"Scenario smoke at {args.rate:g} txn/s "
            f"({args.transactions} txns, {args.workers} workers, "
            f"{elapsed:.1f}s)",
        )
    )

    # Compatibility gate: paper-baseline == the workload-less default path.
    legacy = run_sweep(
        PROTOCOLS,
        baseline_config(**overrides),
        arrival_rates=[args.rate],
        workers=args.workers,
    )
    scenario = run_sweep(
        PROTOCOLS,
        get_scenario("paper-baseline").to_config(**overrides),
        arrival_rates=[args.rate],
        workers=args.workers,
    )
    for name in PROTOCOLS:
        if legacy[name].replications != scenario[name].replications:
            print(
                f"FAIL: paper-baseline diverges from the default path for "
                f"{name} — the scenario subsystem must be bit-identical",
                file=sys.stderr,
            )
            return 1

    print(
        f"OK: {len(rows)} scenarios ran; paper-baseline bit-identical "
        "to the default path"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
