"""Full-scale experiment driver behind EXPERIMENTS.md.

Runs every figure of the paper at (near-)paper scale — 4000 completed
transactions per run, multiple replications, the 10-200 tps sweep — and
writes one JSON blob plus printable tables under results/.  Each figure
is declared through the fluent :class:`~repro.experiments.spec.Experiment`
builder, so the driver, the CLI (``repro run spec.json``), and ad-hoc
library runs all share one experiment representation (and therefore one
run-store identity per cell).

Usage:  python scripts/full_experiments.py [--quick] [--workers 4]
                                           [--executor serial|process]
                                           [--store results/runs]

A full pass takes about 90 s with ``--workers 2`` on a 2-core host.
``--store DIR`` makes the whole driver resumable: every
completed (protocol, rate, replication) cell is appended to a run store
under DIR as it finishes, and a re-run after an interruption recomputes
only the missing cells.  The figure sweeps share one store — fig13 and
fig14(a)/15 overlap on three protocols over the same config, so the
shared cells are computed once — while ablation A1 gets its own file
(its SCC-kS specs sweep an independent parameter axis).
"""

import argparse
import os
import time

from repro.errors import ConfigurationError
from repro.experiments.figures import run_ablation_k
from repro.experiments.parallel import (
    ProgressReporter,
    available_executors,
    resolve_executor,
)
from repro.experiments.spec import Experiment
from repro.metrics.report import format_series_table
from repro.results import write_json_atomic

RATES = (10, 25, 50, 75, 100, 125, 150, 175, 200)
FIG13_PROTOCOLS = ("scc-2s", "occ-bc", "wait-50", "2pl-pa")
FIG14_PROTOCOLS = ("scc-vw", "scc-2s", "occ-bc", "wait-50")


def sweep_to_dict(results):
    out = {}
    for name, sweep in results.items():
        out[name] = {
            "rates": list(sweep.arrival_rates),
            "missed": sweep.missed_ratio(),
            "tardiness": sweep.avg_tardiness(),
            "value": sweep.system_value(),
            "restarts": sweep.metric(lambda s: float(s.restarts)),
            "wasted_fraction": sweep.metric(lambda s: s.wasted_fraction),
            "deferred": sweep.metric(lambda s: float(s.deferred_commits)),
        }
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--executor", choices=available_executors(), default=None,
        help="sweep executor (default: serial, or process when --workers > 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the process executor (default: all cores)",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="run-store directory: completed cells persist there and an "
        "interrupted driver resumes where it died",
    )
    args = parser.parse_args()
    figures_store = os.path.join(args.store, "figures.jsonl") if args.store else None
    ablation_store = os.path.join(args.store, "ablation_k.jsonl") if args.store else None
    try:
        executor = resolve_executor(args.executor, workers=args.workers)
    except ConfigurationError as exc:
        parser.error(str(exc))
    txns = 1000 if args.quick else 4000
    warmup = 50 if args.quick else 200
    reps = 1 if args.quick else 2

    def experiment(protocols, scenario=None):
        builder = (
            Experiment.scenario(scenario) if scenario else Experiment.baseline()
        )
        return (
            builder.protocols(*protocols)
            .rates(*RATES)
            .transactions(txns)
            .warmup(warmup)
            .replications(reps)
        )

    progress = ProgressReporter()

    base = experiment(FIG13_PROTOCOLS).build().to_config()
    blob = {"config": {"transactions": txns, "replications": reps,
                       "rates": list(RATES), "step_ms": base.step_duration * 1e3}}
    t0 = time.time()

    print("== Figure 13 (baseline: missed ratio + tardiness) ==", flush=True)
    r13 = experiment(FIG13_PROTOCOLS).run(
        on_event=progress, executor=executor, store=figures_store)
    blob["fig13"] = sweep_to_dict(r13)
    print(format_series_table("rate", list(RATES),
          {n: s.missed_ratio() for n, s in r13.items()}, "Fig 13(a) Missed Ratio (%)"))
    print(format_series_table("rate", list(RATES),
          {n: s.avg_tardiness() for n, s in r13.items()}, "Fig 13(b) Avg Tardiness (s)"))

    print("== Figures 14(a)/15 (one-class value runs) ==", flush=True)
    r14a = experiment(FIG14_PROTOCOLS).run(
        on_event=progress, executor=executor, store=figures_store)
    blob["fig14a_fig15"] = sweep_to_dict(r14a)
    print(format_series_table("rate", list(RATES),
          {n: s.system_value() for n, s in r14a.items()}, "Fig 14(a) System Value (%)"))
    print(format_series_table("rate", list(RATES),
          {n: s.missed_ratio() for n, s in r14a.items()}, "Fig 15(a) Missed Ratio (%)"))
    print(format_series_table("rate", list(RATES),
          {n: s.avg_tardiness() for n, s in r14a.items()}, "Fig 15(b) Avg Tardiness (s)"))

    print("== Figure 14(b) (two-class value runs) ==", flush=True)
    r14b = experiment(FIG14_PROTOCOLS, scenario="paper-two-class").run(
        on_event=progress, executor=executor, store=figures_store)
    blob["fig14b"] = sweep_to_dict(r14b)
    print(format_series_table("rate", list(RATES),
          {n: s.system_value() for n, s in r14b.items()}, "Fig 14(b) System Value (%)"))

    print("== Ablation A1 (k sweep) ==", flush=True)
    rk = run_ablation_k(base.scaled(arrival_rates=[70, 150]), ks=(1, 2, 3, 5, None),
                    executor=executor, store=ablation_store)
    blob["ablation_k"] = sweep_to_dict(rk)
    print(format_series_table("rate", [70, 150],
          {n: s.missed_ratio() for n, s in rk.items()}, "A1 Missed Ratio (%) by k"))

    blob["elapsed_seconds"] = time.time() - t0
    os.makedirs("results", exist_ok=True)
    write_json_atomic("results/full_experiments.json", blob)
    print(f"done in {blob['elapsed_seconds']:.0f}s -> results/full_experiments.json")


if __name__ == "__main__":
    main()
