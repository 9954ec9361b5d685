"""Full-scale experiment driver behind EXPERIMENTS.md.

Runs the paper's figures and ablation A1 from their committed spec files
(``specs/fig13.json``, ``specs/fig14a-fig15.json``, ``specs/fig14b.json``
and ``specs/ablation-k.json``) exactly as committed — 4000 completed
transactions per run, 3 replications, the 10-200 tps sweep — and writes
one JSON blob plus printable tables under results/.  The spec files are
the one definition of each roster and scale, shared with ``repro run``,
the gateway and the benchmarks (and therefore one run-store identity per
cell).  ``--quick`` overrides only the scale (1000 transactions, 50
warmup commits, 1 replication).

Usage:  python scripts/full_experiments.py [--quick] [--workers 4]
                                           [--executor serial|distributed]
                                           [--store results/runs]

``--workers N`` (N > 1) runs every sweep on N hosts claiming cells from
the job board (the ``distributed`` executor); without it every sweep
runs serially.

A full pass at 2 replications took about 90 s with ``--workers 2`` on a
2-core host; the committed files ask for 3.
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
from repro.experiments.parallel import (
    ProgressReporter,
    available_executors,
    resolve_executor,
)
from repro.experiments.spec import ExperimentSpec
from repro.metrics.report import format_series_table
from repro.results import write_json_atomic

SPECS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "specs"
)

#: (blob key, heading, spec file, store file, [(table title, SweepResult
#: metric method)]), in run order.
EXPERIMENTS = (
    ("fig13", "Figure 13 (baseline: missed ratio + tardiness)",
     "fig13.json", "figures.jsonl",
     [("Fig 13(a) Missed Ratio (%)", "missed_ratio"),
      ("Fig 13(b) Avg Tardiness (s)", "avg_tardiness")]),
    ("fig14a_fig15", "Figures 14(a)/15 (one-class value runs)",
     "fig14a-fig15.json", "figures.jsonl",
     [("Fig 14(a) System Value (%)", "system_value"),
      ("Fig 15(a) Missed Ratio (%)", "missed_ratio"),
      ("Fig 15(b) Avg Tardiness (s)", "avg_tardiness")]),
    ("fig14b", "Figure 14(b) (two-class value runs)",
     "fig14b.json", "figures.jsonl",
     [("Fig 14(b) System Value (%)", "system_value")]),
    ("ablation_k", "Ablation A1 (k sweep)",
     "ablation-k.json", "ablation_k.jsonl",
     [("A1 Missed Ratio (%) by k", "missed_ratio")]),
)

#: ``--quick`` scale: the only override of the committed files.
QUICK = dict(num_transactions=1000, warmup_commits=50, replications=1)


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
        help="sweep executor (default: serial, or distributed when "
        "--workers > 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes claiming cells from the job board "
        "(default: serial; one per core with --executor distributed)",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="run-store directory: completed cells persist there and an "
        "interrupted driver resumes where it died",
    )
    args = parser.parse_args()
    try:
        executor = resolve_executor(args.executor, workers=args.workers)
    except ConfigurationError as exc:
        parser.error(str(exc))
    overrides = QUICK if args.quick else {}
    progress = ProgressReporter()

    blob = {}
    t0 = time.time()
    for key, heading, spec_file, store_file, tables in EXPERIMENTS:
        spec = ExperimentSpec.load(os.path.join(SPECS_DIR, spec_file))
        config = spec.to_config(**overrides)
        if "config" not in blob:
            blob["config"] = {
                "transactions": config.num_transactions,
                "replications": config.replications,
                "rates": list(config.arrival_rates),
                "step_ms": config.step_duration * 1e3,
            }
        print(f"== {heading} ==", flush=True)
        results = spec.run(
            config=config, on_event=progress, executor=executor,
            store=os.path.join(args.store, store_file) if args.store else None,
        )
        blob[key] = sweep_to_dict(results)
        rates = list(config.arrival_rates)
        for title, metric in tables:
            print(format_series_table(
                "rate", rates,
                {n: getattr(s, metric)() for n, s in results.items()}, title))

    blob["elapsed_seconds"] = time.time() - t0
    os.makedirs("results", exist_ok=True)
    write_json_atomic("results/full_experiments.json", blob)
    print(f"done in {blob['elapsed_seconds']:.0f}s -> results/full_experiments.json")


if __name__ == "__main__":
    main()
