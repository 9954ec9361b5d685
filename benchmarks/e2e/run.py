"""End-to-end benchmark: from ``repro run`` / ``repro serve`` to persisted records.

Usage::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S] [--trace 0|1 | --traced]
                                 [--scale full|smoke] [--out DIR]
                                 [--work DIR]

Four workloads (see README.md for why each exists):

* ``paper-sweep`` — the paper's Fig 13/14 roster through ``repro run``;
* ``contended-diurnal`` — the diurnal-oltp outlier, SCC's shadow path;
* ``many-cells`` — 120 tiny cells through ``repro run --workers 2`` into
  SQLite: executor, fingerprint and store overhead;
* ``gateway-mixed`` — ``repro serve`` under a two-client open loop.

Untraced (``--trace 0``, the default) prints the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once with every layer
boundary wrapped (see ``layers.py``) and prints the per-layer metrics.
Each workload's block lists every metric with its unit and sample count;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``BENCHMARK.json`` metrics of the mode.  Output checks
(``checks.py``) run on every workload; any failure exits 1.

Stores, logs and spans go to ``--work`` (default ``benchmarks/e2e/.work``,
inside the checkout) and are deleted as each workload ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import harness
import layers

BENCHMARK = harness.ROOT / "BENCHMARK.json"
WORK = Path(__file__).resolve().with_name(".work")

#: Every metric the harness can print: name -> unit.
UNITS = {
    # end to end (untraced)
    "setup_s": "s",
    "wall_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
    "first_event_p50_s": "s",
    "first_event_p90_s": "s",
    "cached_done_p50_s": "s",
    "cached_done_p90_s": "s",
    "cold_done_p50_s": "s",
    "cold_done_p80_s": "s",
    # per layer (traced)
    "experiments.import_s": "s",
    "experiments.spec_load_s": "s",
    "experiments.cell_p50_s": "s",
    "experiments.cell_p90_s": "s",
    "experiments.cell_overhead_s": "s",
    "workloads.build_s": "s",
    "workloads.build_share": "fraction",
    "system.load_s": "s",
    "system.run_s": "s",
    "engine.us_per_event": "us",
    "engine.events": "count",
    "engine.peak_pending_events": "count",
    "protocols.events_per_commit": "events/commit",
    "protocols.restarts_per_commit": "restarts/commit",
    "core.shadow_forks_per_commit": "forks/commit",
    "protocols.wasted_work_frac": "fraction",
    "metrics.summary_s": "s",
    "analysis.serializability_s": "s",
    "analysis.serializability_share": "fraction",
    "results.open_s": "s",
    "results.fingerprint_s": "s",
    "results.append_p50_s": "s",
    "results.append_p90_s": "s",
    "results.get_p50_s": "s",
    "results.bytes_per_record": "bytes",
    "telemetry.bus_s": "s",
    "gateway.submit_p50_s": "s",
    "gateway.submit_p90_s": "s",
    "gateway.queue_wait_p50_s": "s",
    "gateway.queue_wait_p80_s": "s",
    "gateway.claim_s": "s",
    "gateway.empty_claims": "count",
    "gateway.board_complete_s": "s",
    "loadgen.late_p90_s": "s",
    "loadgen.late_max_s": "s",
    "host.ref_s": "s",
    "bench.trace_overhead_frac": "fraction",
}

#: Per-layer metric -> the span name it is read from (for ``absent``).
SPAN_OF = {
    "experiments.spec_load_s": "experiments.spec_load",
    "experiments.cell_p50_s": "experiments.cell",
    "experiments.cell_p90_s": "experiments.cell",
    "experiments.cell_overhead_s": "experiments.cell",
    "workloads.build_s": "workloads.build",
    "workloads.build_share": "workloads.build",
    "system.load_s": "system.load",
    "system.run_s": "system.run",
    "engine.us_per_event": "system.run",
    "metrics.summary_s": "metrics.summary",
    "analysis.serializability_s": "analysis.serializability",
    "analysis.serializability_share": "analysis.serializability",
    "results.open_s": "results.open",
    "results.fingerprint_s": "results.fingerprint",
    "results.append_p50_s": "results.append",
    "results.append_p90_s": "results.append",
    "results.get_p50_s": "results.get",
    "telemetry.bus_s": "telemetry.bus",
    "gateway.submit_p50_s": "gateway.submit",
    "gateway.submit_p90_s": "gateway.submit",
    "gateway.claim_s": "gateway.claim",
    "gateway.empty_claims": "gateway.claim",
    "gateway.board_complete_s": "gateway.board_complete",
}


def quantile(values, q: float):
    """Linearly interpolated quantile (``q`` in [0, 1]); None when empty."""
    values = sorted(values)
    if not values:
        return None
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def median(values):
    return statistics.median(values) if values else None


def ratio(a, b):
    return a / b if a is not None and b else None


def drive(workload, workspace, scale, seed, seconds, samples=True):
    if workload == "gateway-mixed":
        return harness.gateway_workload(workspace, scale, seed, seconds, samples)
    return harness.run_workload(workspace, workload, scale, seed, seconds, samples)


def verify(workload, scale, seed, raw):
    """Run the output checks on every store of a pass.

    Returns the first store's records and the workload digest; problems
    are booked on ``raw``.
    """
    first_records, digest = [], None
    for store, seeds in raw.stores:
        problems, records, store_digest = checks.check_store(
            store, workload, scale, seeds, raw.digest_seeds, seed
        )
        for problem in problems:
            raw.fail(problem)
        if digest is None:
            first_records, digest = records, store_digest
    if digest is None:
        raw.fail("no store to check")
    return first_records, digest


def adjusted(raw, values, q, refs=()):
    """Quantile ``q`` of host-adjusted times, and the sample count.

    A launch's time is scaled by the reference launched just before it
    (``refs``, one per value); a gateway request's by the median of the
    run's references.
    """
    if refs:
        values = [value / ref for value, ref in zip(values, refs)]
        scale = harness.REFERENCE_S
    else:
        scale = ratio(harness.REFERENCE_S, median(raw.refs))
    value = quantile(values, q)
    return (value * scale if value is not None and scale else None), len(values)


def end_to_end(workload, raw) -> dict:
    # The generator's lateness is the harness's own, not adjusted.
    metrics = {
        "setup_s": adjusted(raw, raw.setup, 0.5, raw.setup_refs),
        "peak_rss_mb": (max(raw.rss_mb) if raw.rss_mb else None, len(raw.rss_mb)),
        "failed_frac": (ratio(raw.failed, raw.attempted), raw.attempted),
        "host.ref_s": (median(raw.refs), len(raw.refs)),
    }
    if workload == "gateway-mixed":
        metrics.update({
            "first_event_p50_s": adjusted(raw, raw.first_event, 0.5),
            "first_event_p90_s": adjusted(raw, raw.first_event, 0.9),
            "cached_done_p50_s": adjusted(raw, raw.warm, 0.5),
            "cached_done_p90_s": adjusted(raw, raw.warm, 0.9),
            "cold_done_p50_s": adjusted(raw, raw.cold, 0.5),
            "cold_done_p80_s": adjusted(raw, raw.cold, 0.8),
            "loadgen.late_p90_s": (quantile(raw.late, 0.9), len(raw.late)),
            "loadgen.late_max_s": (max(raw.late) if raw.late else None, len(raw.late)),
        })
    else:
        metrics.update({
            "wall_s": adjusted(raw, raw.cold, 0.5, raw.cold_refs),
            "resume_s": adjusted(raw, raw.warm, 0.5, raw.warm_refs),
        })
    return metrics


def simulated_counts(records) -> dict:
    """Counts the simulation itself produced; a speed-only change keeps them."""
    def counter(name):
        return sum(r["telemetry"]["counters"].get(name, 0) for r in records)

    commits = counter("commits")
    # fsum is exact, so the process executor's completion-order records
    # give the same totals as a serial run's.
    wasted = math.fsum(r["summary"]["wasted_work"] for r in records)
    useful = math.fsum(r["summary"]["useful_work"] for r in records)
    events = sum(r["telemetry"]["events_fired"] for r in records)
    n = len(records)
    return {
        "engine.events": (events, n),
        "engine.peak_pending_events": (
            max((r["telemetry"]["peak_pending_events"] for r in records), default=None),
            n,
        ),
        "protocols.events_per_commit": (ratio(events, commits), n),
        "protocols.restarts_per_commit": (ratio(counter("restarts"), commits), n),
        "core.shadow_forks_per_commit": (ratio(counter("shadow_forks"), commits), n),
        "protocols.wasted_work_frac": (ratio(wasted, wasted + useful), n),
    }


def per_layer(workload, plain, traced, records, spans_dir) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass; returns ``(metrics, absent)``."""
    spans, absent_targets = layers.load_spans(spans_dir)
    # Outermost spans only: a layer nested in itself is counted once.
    outer = [s for s in spans if not s["nested"]]
    dur: dict = {}
    self_time: dict = {}
    for span in outer:
        dur.setdefault(span["name"], []).append(span["dur"])
        self_time.setdefault(span["name"], []).append(span["self"])

    def calls(name, stat):
        values = dur.get(name, [])
        return stat(values) if values else None, len(values)

    def per_cell(name, times=dur):
        return ratio(sum(times.get(name, [])), n), n

    def share(name):
        return ratio(sum(dur.get(name, [])), cell_total), n

    cells = dur.get("experiments.cell", [])
    n, cell_total = len(cells), sum(cells)
    counts = simulated_counts(records)
    # A store handed on already open is returned as is, so opening time
    # is summed per launch rather than taken per call.
    opens: dict = {}
    for span in outer:
        if span["name"] == "results.open":
            opens[span["pid"]] = opens.get(span["pid"], 0.0) + span["dur"]
    record_bytes = sum(
        len(json.dumps(r, sort_keys=True, separators=(",", ":"))) for r in records
    )
    # Host-adjusted, so a host that sped up or slowed down between the
    # two passes does not read as tracing cost.
    overhead = ratio(
        adjusted(traced, traced.cold, 0.5, traced.cold_refs)[0],
        adjusted(plain, plain.cold, 0.5, plain.cold_refs)[0],
    )
    overhead = overhead - 1 if overhead is not None else None
    metrics = {
        "experiments.import_s": calls("experiments.import", median),
        "experiments.spec_load_s": calls("experiments.spec_load", median),
        "experiments.cell_p50_s": (quantile(cells, 0.5), n),
        "experiments.cell_p90_s": (quantile(cells, 0.9), n),
        "workloads.build_s": per_cell("workloads.build"),
        "workloads.build_share": share("workloads.build"),
        "system.load_s": per_cell("system.load", self_time),
        "system.run_s": per_cell("system.run"),
        "engine.us_per_event": (
            ratio(sum(dur.get("system.run", [])) * 1e6, counts["engine.events"][0]), n
        ),
        "metrics.summary_s": per_cell("metrics.summary"),
        "analysis.serializability_s": per_cell("analysis.serializability"),
        "analysis.serializability_share": share("analysis.serializability"),
        "results.open_s": (median(list(opens.values())), len(opens)),
        "results.fingerprint_s": calls("results.fingerprint", statistics.mean),
        "results.append_p50_s": calls("results.append", lambda v: quantile(v, 0.5)),
        "results.append_p90_s": calls("results.append", lambda v: quantile(v, 0.9)),
        "results.get_p50_s": calls("results.get", median),
        "results.bytes_per_record": (ratio(record_bytes, len(records)), len(records)),
        "telemetry.bus_s": per_cell("telemetry.bus"),
        "bench.trace_overhead_frac": (overhead, len(traced.cold)),
        **counts,
    }
    if workload == "gateway-mixed":
        claims = [s for s in outer if s["name"] == "gateway.claim"]
        waits, late = traced.queue_wait, traced.late
        metrics.update({
            "gateway.submit_p50_s": calls("gateway.submit", lambda v: quantile(v, 0.5)),
            "gateway.submit_p90_s": calls("gateway.submit", lambda v: quantile(v, 0.9)),
            "gateway.queue_wait_p50_s": (quantile(waits, 0.5), len(waits)),
            "gateway.queue_wait_p80_s": (quantile(waits, 0.8), len(waits)),
            "gateway.claim_s": calls("gateway.claim", statistics.mean),
            "gateway.empty_claims": (sum(1 for s in claims if s["none"]), len(claims)),
            "gateway.board_complete_s": calls("gateway.board_complete", statistics.mean),
            "loadgen.late_p90_s": (quantile(late, 0.9), len(late)),
            "loadgen.late_max_s": (max(late) if late else None, len(late)),
        })
    elif traced.first_cold is not None and cells:
        # Set-up is spawn until the first cell starts; cells in a process
        # pool overlap, so their total is shared among the workers.
        spawned, wall, count, workers = traced.first_cold
        first = min(s["start"] for s in outer if s["name"] == "experiments.cell")
        metrics["experiments.cell_overhead_s"] = (
            (wall - (first - spawned) - cell_total / workers) / count, count
        )
    gone = layers.absent_layers(absent_targets)
    absent = {
        metric: gone[span] for metric, span in SPAN_OF.items()
        if span in gone and metric in metrics
    }
    for metric in absent:
        metrics[metric] = (None, 0)
    return metrics, absent


def run_one(workload, args, benchmark) -> dict:
    """Measure one workload; returns its result document.

    With ``--out``, the document is written there as JSON and a traced
    run's spans beside it, all processes' in one ``.spans.jsonl`` file.
    """
    stem = f"{workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}"
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=args.work))
    started = time.perf_counter()
    workspaces = []
    absent: dict = {}
    digest = None
    try:
        if not args.trace:
            workspace = harness.Workspace(work / "plain")
            workspaces.append(workspace)
            raw = drive(workload, workspace, args.scale, args.seed, args.seconds)
            _, digest = verify(workload, args.scale, args.seed, raw)
            metrics = end_to_end(workload, raw)
            attempted, failed, problems = raw.attempted, raw.failed, raw.problems
            samples = {
                "setup": raw.setup, "cold": raw.cold, "warm": raw.warm, "refs": raw.refs,
                "setup_refs": raw.setup_refs, "cold_refs": raw.cold_refs,
                "warm_refs": raw.warm_refs,
            }
        else:
            # Same inputs twice: untraced for the overhead base, then traced.
            seconds = args.seconds / 2
            plain_workspace = harness.Workspace(work / "plain")
            traced_workspace = harness.Workspace(work / "traced", spans=work / "spans")
            workspaces += [plain_workspace, traced_workspace]
            plain = drive(workload, plain_workspace, args.scale, args.seed, seconds, samples=False)
            traced = drive(workload, traced_workspace, args.scale, args.seed, seconds, samples=False)
            plain_records, plain_digest = verify(workload, args.scale, args.seed, plain)
            records, digest = verify(workload, args.scale, args.seed, traced)
            if plain_digest != digest:
                traced.fail("traced run's summary digest differs from the untraced run's")
            if simulated_counts(plain_records) != simulated_counts(records):
                traced.fail("traced run's simulated counts differ from the untraced run's")
            metrics, absent = per_layer(workload, plain, traced, records, work / "spans")
            if args.out is not None:
                with open(args.out / f"{stem}.spans.jsonl", "w") as merged:
                    for path in sorted((work / "spans").glob("*.jsonl")):
                        merged.write(path.read_text())
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            problems = plain.problems + traced.problems
            samples = {"cold": traced.cold, "plain_cold": plain.cold}
    except (harness.LaunchError, OSError) as exc:
        metrics, attempted, failed, samples = {}, 1, 1, {}
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        for workspace in workspaces:
            workspace.close()
        shutil.rmtree(work, ignore_errors=True)
    gated = benchmark["per_layer" if args.trace else "end_to_end"]
    result = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - started,
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "metrics": {
            name: {"value": value, "unit": UNITS[name], "n": n}
            for name, (value, n) in metrics.items() if value is not None
        },
        "absent": absent,
        "gated": [entry["name"] for entry in gated],
        "samples": samples,
    }
    if args.out is not None:
        (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result) -> list:
    """The human-readable block for one workload."""
    mode = "traced" if result["trace"] else "untraced"
    lines = [
        f"== {result['workload']} (seed {result['seed']}, {result['scale']}, "
        f"{mode}, {result['elapsed_s']:.1f} s) =="
    ]
    for name in UNITS:
        if name in result["metrics"]:
            entry = result["metrics"][name]
            tag = "" if name in result["gated"] else "  (not in BENCHMARK.json)"
            lines.append(
                f"  {name:32s} {entry['value']:>14.6g} {entry['unit']:<16s}"
                f" n={entry['n']}{tag}"
            )
        elif name in result["absent"]:
            lines.append(f"  {name:32s} absent: {', '.join(result['absent'][name])}")
        elif name in result["gated"]:
            lines.append(f"  {name:32s} missing")
    status = "ok" if not result["problems"] else f"{len(result['problems'])} problem(s)"
    lines.append(f"  checks: {status}")
    lines += [f"    - {problem}" for problem in result["problems"][:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=harness.WORKLOADS, default=list(harness.WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: 15, or 2 at smoke scale)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=sorted(harness.SCALES), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="write one JSON result per workload here "
                        "(and a traced run's spans)")
    parser.add_argument("--work", type=Path, default=WORK,
                        help="scratch directory for stores, logs and spans, "
                        "emptied as each workload ends (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = harness.SCALES[args.scale]["seconds"]
    if not (harness.SRC / "repro" / "experiments" / "cli.py").is_file():
        print(f"e2e: no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    # Temporary files of this process (SQLite's, when reading stores back)
    # go to the scratch directory too.
    args.work = args.work.resolve()
    args.work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(args.work)
    # A SIGTERM unwinds like an error, so every launch is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Once per invocation: between workloads the CPUs never sit idle.
    harness.warm_up(harness.SCALES[args.scale]["warm_up_s"])

    results = [run_one(workload, args, benchmark) for workload in args.workloads]
    for result in results:
        print("\n".join(report(result)), flush=True)

    prefix = len(results) > 1
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}:{name}" if prefix else name): {
                "value": r["metrics"][name]["value"],
                "unit": r["metrics"][name]["unit"],
            }
            for r in results for name in r["gated"] if name in r["metrics"]
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
