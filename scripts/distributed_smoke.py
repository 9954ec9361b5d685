"""CI smoke check: distributed sweep with a mid-run worker kill + shard merge.

Exercises the distributed execution stack end to end, the way the unit
suite can't — real multi-host scheduling, a real worker death, and the
CLI merge path — and holds it to the determinism bar:

1. **serial** — run a reduced Figure-13 sweep (the ``specs/fig13.json``
   roster) serially; keep summaries in memory as the bit-exactness
   reference.
2. **distributed + kill** — run the same sweep with ``--executor
   distributed`` across two forked hosts into a SQLite store, with a
   fault hook that hard-kills the first host to claim a cell
   (``os._exit``, no cleanup).  The lease/retry protocol must absorb the
   death: results bit-identical to serial, one ``worker_lost`` and at
   least one ``cell_retried`` on the telemetry bus, plus a replacement
   ``worker_started``.  Afterwards no host is left unreaped (read from
   ``/proc``; skipped where it is missing), and this process has not
   loaded ``multiprocessing`` (hosts are forked and reaped directly).
3. **shard merge** — run the two halves of the rate grid into separate
   per-host shard stores (one JSONL, one SQLite), combine them with the
   CLI's ``results merge``, and verify the merged store's records carry
   exactly the serial summaries.

Usage::

    python scripts/distributed_smoke.py [--transactions 200]
                                        [--replications 2] [--rates 60,140]

Exit codes: 0 OK, 1 mismatch/failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.experiments.cli import main as cli_main  # noqa: E402
from repro.experiments.config import baseline_config  # noqa: E402
from repro.experiments.distributed import DistributedSweepExecutor  # noqa: E402
from repro.experiments.runner import build_cells, run_sweep  # noqa: E402
from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.results import open_store  # noqa: E402

FIG13_SPEC = os.path.join(os.path.dirname(__file__), os.pardir, "specs",
                          "fig13.json")


def build_config(args: argparse.Namespace, rates=None):
    rates = rates if rates is not None else tuple(
        float(rate) for rate in args.rates.split(",") if rate.strip()
    )
    return baseline_config(
        num_transactions=args.transactions,
        warmup_commits=min(20, args.transactions // 10),
        replications=args.replications,
        arrival_rates=rates,
        check_serializability=False,
        seed=args.seed,
    )


def kill_once_hook(marker_path: str):
    """Hard-kill the first host to claim any cell; later claims survive."""

    def hook(cell, attempt):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(13)

    return hook


def child_pids():
    """PIDs of this process's unreaped children, or ``None`` without /proc."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        return None
    pids = set()
    for path in paths:
        with open(path) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


def grids_match(reference, candidate, protocols) -> bool:
    for name in protocols:
        ref = [[dataclasses.asdict(s) for s in per_rate]
               for per_rate in reference[name].replications]
        got = [[dataclasses.asdict(s) for s in per_rate]
               for per_rate in candidate[name].replications]
        if ref != got:
            print(f"error: {name} summaries are not bit-identical to the "
                  "serial run", file=sys.stderr)
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--rates", type=str, default="60,140")
    parser.add_argument("--seed", type=int, default=90_1995)
    args = parser.parse_args(argv)

    config = build_config(args)
    protocols = ExperimentSpec.load(FIG13_SPEC).protocol_mapping()
    rates = config.arrival_rates
    if len(rates) < 2:
        print("error: need at least two rates to split into shards",
              file=sys.stderr)
        return 1
    total = len(build_cells(list(protocols), rates, config.replications))
    workdir = tempfile.mkdtemp(prefix="repro-distributed-smoke-")

    print(f"[1/3] serial reference sweep ({total} cells)...")
    serial = run_sweep(protocols, config, executor="serial")

    print("[2/3] distributed sweep, 2 hosts, first claimant hard-killed...")
    events = []
    executor = DistributedSweepExecutor(
        workers=2,
        lease_seconds=1.0,
        poll_seconds=0.02,
        max_attempts=3,
        fault_hook=kill_once_hook(os.path.join(workdir, "killed")),
    )
    store_path = os.path.join(workdir, "runs.sqlite")
    distributed = run_sweep(
        protocols, config, executor=executor,
        store=store_path, store_backend="sqlite",
        on_event=lambda event: events.append(event.kind),
    )
    if not grids_match(serial, distributed, protocols):
        return 1
    lost = events.count("worker_lost")
    retried = events.count("cell_retried")
    started = events.count("worker_started")
    print(f"      lifecycle: {started} starts, {lost} lost, "
          f"{retried} cell retries")
    if lost != 1 or retried < 1 or started != 3:
        print("error: expected exactly one lost worker, one replacement "
              "start, and >= 1 cell retry on the event bus", file=sys.stderr)
        return 1
    with open_store(store_path) as store:
        if store.backend != "sqlite" or len(store) != total:
            print(f"error: store kept {len(store)}/{total} cells "
                  f"(backend {store.backend})", file=sys.stderr)
            return 1
    print(f"      results bit-identical to serial; store kept {total} cells")
    left = child_pids()
    if left:
        print(f"error: hosts left unreaped: {sorted(left)}", file=sys.stderr)
        return 1
    if "multiprocessing" in sys.modules:
        print("error: the sweep loaded multiprocessing", file=sys.stderr)
        return 1
    print("      no host left unreaped"
          + (" (no /proc to check)" if left is None else "")
          + "; multiprocessing never loaded")

    print("[3/3] two half-grid shards merged via the CLI...")
    half = len(rates) // 2
    shard_specs = [
        (os.path.join(workdir, "shard-a.jsonl"), rates[:half]),
        (os.path.join(workdir, "shard-b.sqlite"), rates[half:]),
    ]
    for shard_path, shard_rates in shard_specs:
        run_sweep(protocols, build_config(args, rates=shard_rates),
                  executor=DistributedSweepExecutor(workers=2, poll_seconds=0.02),
                  store=shard_path)
    merged_path = os.path.join(workdir, "merged.jsonl")
    code = cli_main([
        "results", "merge", "--store", merged_path,
        "--from", ",".join(path for path, _ in shard_specs),
    ])
    if code != 0:
        print(f"error: results merge exited {code}", file=sys.stderr)
        return 1
    with open_store(merged_path) as merged:
        if len(merged) != total:
            print(f"error: merged store has {len(merged)}/{total} cells",
                  file=sys.stderr)
            return 1
        by_cell = {
            (r.protocol, r.arrival_rate, r.replication): r.summary
            for r in merged.records()
        }
    for name in protocols:
        for rate_index, rate in enumerate(rates):
            for rep in range(config.replications):
                reference = serial[name].replications[rate_index][rep]
                got = by_cell.get((name, rate, rep))
                if got != reference:
                    print(f"error: merged record for {name} rate={rate:g} "
                          f"rep={rep} differs from serial", file=sys.stderr)
                    return 1
    print(f"      merged {len(shard_specs)} shards; all {total} records "
          "bit-identical to serial")

    print("OK: worker death absorbed bit-identically; shard merge exact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
