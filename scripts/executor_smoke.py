"""CI smoke check: one small sweep through both executors, summaries diffed.

Runs the Figure 13 roster (``specs/fig13.json``) over a reduced grid
twice — once through the serial executor, once through the process pool
— and fails unless the two paths produce *identical* summaries (the
parallel subsystem's core guarantee: cell placement can never leak into
results).

Usage::

    python scripts/executor_smoke.py [--transactions 200] [--workers 4]

Exit codes: 0 identical, 1 mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.config import baseline_config
from repro.experiments.parallel import ProcessSweepExecutor, SerialSweepExecutor
from repro.experiments.runner import run_sweep
from repro.experiments.spec import ExperimentSpec
from repro.metrics.report import format_series_table

FIG13_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "specs", "fig13.json",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=90_1995)
    args = parser.parse_args(argv)

    config = baseline_config(
        num_transactions=args.transactions,
        warmup_commits=min(200, args.transactions // 10),
        replications=args.replications,
        arrival_rates=(40.0, 70.0, 150.0),
        seed=args.seed,
        check_serializability=False,
    )
    protocols = ExperimentSpec.load(FIG13_SPEC).protocol_mapping()

    t0 = time.perf_counter()
    serial = run_sweep(protocols, config, executor=SerialSweepExecutor())
    t1 = time.perf_counter()
    parallel = run_sweep(
        protocols, config, executor=ProcessSweepExecutor(workers=args.workers)
    )
    t2 = time.perf_counter()

    print(
        format_series_table(
            "arrival_rate",
            list(config.arrival_rates),
            {name: sweep.missed_ratio() for name, sweep in serial.items()},
            title="Missed Ratio (%) — serial executor",
        )
    )
    print(f"serial: {t1 - t0:.2f}s   process x{args.workers}: {t2 - t1:.2f}s")

    mismatches = []
    for name in protocols:
        if serial[name].replications != parallel[name].replications:
            mismatches.append(name)
    if mismatches:
        print(
            f"FAIL: executors disagree for {mismatches} — parallel summaries "
            "must be bit-identical to the serial path",
            file=sys.stderr,
        )
        return 1
    cells = (
        len(protocols) * len(config.arrival_rates) * config.replications
    )
    print(f"OK: {cells} cells identical across serial and process executors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
