"""CI smoke check: kill a store-backed sweep mid-grid, resume, diff vs cold.

Proves the persistence layer's core promise end to end:

1. **cold** — run a reduced Figure-13 sweep (the ``specs/fig13.json``
   roster) with no store; keep the summaries in memory as the reference.
2. **interrupted** — re-run the same sweep in a *subprocess* writing to a
   run store, and hard-kill it (``os._exit``) after half the grid's cells
   have completed — no cleanup, no atexit, exactly like a SIGKILL'd job.
3. **resume** — run the sweep again in this process against the same
   store; count how many cells actually execute.
4. **verify** — the resumed run must (a) have executed only the missing
   half of the grid, and (b) assemble summaries *bit-identical* to the
   cold run.

Usage::

    python scripts/resume_smoke.py [--transactions 200] [--replications 2]
                                   [--rates 60,140] [--store-backend sqlite]

``--store-backend`` picks the run-store backend (default ``jsonl``); the
whole kill/resume contract must hold identically for every backend.

Exit codes: 0 OK, 1 mismatch/failure.  (Also used internally with
``--phase interrupted``, the subprocess that kills itself.)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.experiments.config import baseline_config  # noqa: E402
from repro.experiments.runner import build_cells, run_sweep  # noqa: E402
from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.results import STORE_BACKENDS, open_store  # noqa: E402

FIG13_SPEC = os.path.join(os.path.dirname(__file__), os.pardir, "specs",
                          "fig13.json")

KILL_EXIT_CODE = 87  # distinctive: "I killed myself on purpose"


def _remove_store_files(path: str) -> None:
    """Remove the store plus any SQLite WAL/shm sidecars."""
    for candidate in (path, path + "-wal", path + "-shm"):
        if os.path.exists(candidate):
            os.unlink(candidate)


def build_config(args: argparse.Namespace):
    rates = tuple(float(rate) for rate in args.rates.split(",") if rate.strip())
    return baseline_config(
        num_transactions=args.transactions,
        warmup_commits=min(20, args.transactions // 10),
        replications=args.replications,
        arrival_rates=rates,
        check_serializability=False,
        seed=args.seed,
    )


def run_interrupted(args: argparse.Namespace) -> int:
    """Subprocess body: run with a store, hard-kill at half the grid."""
    config = build_config(args)
    protocols = ExperimentSpec.load(FIG13_SPEC).protocol_mapping()
    total = len(build_cells(list(protocols), config.arrival_rates,
                            config.replications))
    kill_after = total // 2
    completed = 0

    def on_event(event) -> None:
        nonlocal completed
        if event.kind != "cell_completed":
            return
        completed += 1
        if completed >= kill_after:
            # Simulate SIGKILL mid-sweep: no cleanup, no flushing beyond
            # what the store already fsync'd per cell.
            os._exit(KILL_EXIT_CODE)

    run_sweep(protocols, config, store=args.store,
              store_backend=args.store_backend, on_event=on_event)
    print("error: interrupted phase ran to completion without dying",
          file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--rates", type=str, default="60,140")
    parser.add_argument("--seed", type=int, default=90_1995)
    parser.add_argument("--store", type=str, default="resume_smoke_runs.jsonl")
    parser.add_argument("--store-backend", choices=list(STORE_BACKENDS),
                        default="jsonl")
    parser.add_argument("--phase", choices=["interrupted"], default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase == "interrupted":
        return run_interrupted(args)

    _remove_store_files(args.store)

    config = build_config(args)
    protocols = ExperimentSpec.load(FIG13_SPEC).protocol_mapping()
    total = len(build_cells(list(protocols), config.arrival_rates,
                            config.replications))

    print(f"[1/3] cold reference sweep ({total} cells)...")
    cold = run_sweep(protocols, config)

    print("[2/3] interrupted sweep (subprocess, killed at half grid)...")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--phase", "interrupted",
         "--transactions", str(args.transactions),
         "--replications", str(args.replications),
         "--rates", args.rates, "--seed", str(args.seed),
         "--store", args.store, "--store-backend", args.store_backend],
        cwd=os.getcwd(),
    )
    if proc.returncode != KILL_EXIT_CODE:
        print(f"error: interrupted phase exited {proc.returncode}, "
              f"expected the self-kill code {KILL_EXIT_CODE}", file=sys.stderr)
        return 1
    with open_store(args.store, backend=args.store_backend) as store:
        survived = len(store)
    print(f"      store kept {survived}/{total} cells across the kill")
    if not 0 < survived < total:
        print("error: the kill left the store empty or complete — the "
              "interruption did not actually interrupt", file=sys.stderr)
        return 1

    print("[3/3] resumed sweep against the same store...")
    executed = 0

    def count(event) -> None:
        nonlocal executed
        if event.kind == "cell_completed":
            executed += 1

    resumed = run_sweep(protocols, config, store=args.store,
                        store_backend=args.store_backend, on_event=count)
    print(f"      resume executed {executed} cells "
          f"(grid {total}, surviving {survived})")
    if executed != total - survived:
        print(f"error: resume executed {executed} cells, expected exactly "
              f"the missing {total - survived}", file=sys.stderr)
        return 1

    for name in protocols:
        cold_grid = [[s.to_dict() for s in per_rate]
                     for per_rate in cold[name].replications]
        resumed_grid = [[s.to_dict() for s in per_rate]
                        for per_rate in resumed[name].replications]
        if cold_grid != resumed_grid:
            print(f"error: resumed summaries for {name} are not "
                  "bit-identical to the cold run", file=sys.stderr)
            return 1
    _remove_store_files(args.store)
    print("OK: interrupted sweep resumed only missing cells; results "
          "bit-identical to the cold run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
