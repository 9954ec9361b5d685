"""Command-line entry point: experiment specs, registries, stores, traces.

Installed as both ``scc-experiments`` and ``repro``.  Usage::

    repro run specs/fig13.json [--transactions N] [--replications R]
                               [--rates 10,50,100,150,200] [--seed S]
                               [--executor serial|distributed] [--workers W]
                               [--store runs.jsonl] [--format table|json|csv]
    scc-experiments fig3                # analytic shadow-count table
    scc-experiments scenarios           # list the registered scenarios
    scc-experiments specs               # list the protocol registry
    scc-experiments results list --store runs.jsonl
    scc-experiments results export --store runs.jsonl --format csv
    scc-experiments results diff --store a.jsonl --against b.jsonl
    scc-experiments results merge --store all.sqlite --from shard0.jsonl,shard1.jsonl
    scc-experiments results compact --store runs.jsonl
    repro serve --store runs.sqlite --port 8642 --workers 4

``repro run SPEC.json`` executes a serialized
:class:`~repro.experiments.spec.ExperimentSpec` — scenario, protocol
specs, grid axes, execution policy, and store in one artifact — and
prints the Missed Ratio, Average Tardiness and System Value series as
fixed-width tables (one row per arrival rate, one column per protocol).
The paper's figures and ablations are the committed files under
``specs/``: ``fig13.json`` (Figure 13(a)/(b)), ``fig14a-fig15.json``
(Figures 14(a), 15(a) and 15(b)), ``fig14b.json`` (Figure 14(b)) and
``ablation-*.json`` (A1-A4).  Flags given on the command line
(``--rates``, ``--transactions``, ``--replications``, ``--seed``,
``--executor``, ``--workers``, ``--store``) override the spec for that
invocation; everything omitted comes from the spec file.  ``specs``
lists the registered protocol families and their parameters (the
vocabulary of ``protocols`` entries in spec files).  ``fig3`` prints the
analytic SCC-OB vs SCC-CB shadow-count table.

``--store PATH`` makes the sweep persistent and resumable: cells already
in the run store are served from it, fresh cells are appended as they
complete, and an interrupted invocation picks up where it died.
``--store-backend jsonl|sqlite`` forces the store backend; omitted, an
existing file is sniffed by content and a path with no content decided
by extension (``.sqlite``/``.sqlite3``/``.db`` mean SQLite,
``.jsonl``/``.json``/``.ndjson`` mean JSONL; any other extension is an
error asking for the flag).  ``--workers N`` (N > 1) fans the sweep
out to N worker "hosts" claiming cells from a shared job board, the
``distributed`` executor (see docs/ARCHITECTURE.md, "Distributed
execution"); without it the sweep runs serially, in process.
``--format json|csv`` replaces the table with the canonical
:class:`~repro.results.record.RunRecord` serialization (machine-readable;
status lines go to stderr).  The ``results`` subcommand lists, exports,
diffs, merges (``merge --from shard,...``), and compacts stored runs
without re-simulating anything.

``repro serve`` runs the experiment gateway (:mod:`repro.gateway`): a
long-running HTTP service accepting ``ExperimentSpec`` JSON on
``POST /experiments``, deduplicating cells by fingerprint against the
shared ``--store``, and streaming sweep events per experiment on
``GET /experiments/{id}/events``.  ``--workers`` sizes the worker-thread
pool, ``--max-queued-cells`` / ``--max-experiments`` set the per-client
quotas, and ``--workdir`` persists the job board across restarts.
SIGTERM drains gracefully (see docs/ARCHITECTURE.md, "Experiment
gateway").

Observability (see docs/ARCHITECTURE.md, "Telemetry & observability"):

* ``repro run spec.json --trace events.jsonl`` records the typed
  lifecycle event stream (``repro.telemetry``) of every cell to a JSONL
  trace file (serial executor only);
* ``repro run spec.json --profile out.pstats`` dumps a ``cProfile``
  capture of the whole sweep;
* ``repro trace summarize events.jsonl`` aggregates a trace file
  (events per kind, cells, transactions, time span) and
  ``repro trace timeline events.jsonl`` draws the first traced cell as
  an ASCII shadow timeline;
* ``--log-level debug|info|warning|error`` / ``--quiet`` control the
  ``repro`` logger that all diagnostics flow through (stderr).
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.experiments.parallel import available_executors
from repro.metrics.report import format_series_table, format_table
from repro.results import (
    STORE_BACKENDS,
    BaseRunStore,
    diff_records,
    merge_stores,
    open_store,
    records_from_results,
    records_to_json,
    write_csv,
)
from repro.telemetry.log import LOG_LEVELS, configure_logging, get_logger

#: All CLI diagnostics (progress, status notes, warnings) flow through
#: this logger onto stderr; stdout stays reserved for the actual output
#: (tables / JSON / CSV).
_log = get_logger("cli")

_METRIC_EXTRACTORS = {
    "missed": lambda result: result.missed_ratio(),
    "tardiness": lambda result: result.avg_tardiness(),
    "value": lambda result: result.system_value(),
}


def _parse_rates(text: Optional[str]) -> Optional[list[float]]:
    if text is None:
        return None
    try:
        return [float(r) for r in text.split(",") if r.strip()]
    except ValueError as exc:
        raise SystemExit(f"invalid --rates value {text!r}: {exc}")


def _list_scenarios() -> str:
    from repro.workloads.scenarios import all_scenarios

    rows = []
    for scenario in all_scenarios():
        classes = ", ".join(
            f"{cls.name} ({cls.weight:g})" for cls in scenario.classes
        )
        rows.append(
            (
                scenario.name,
                scenario.arrivals.kind,
                scenario.access.kind,
                scenario.deadlines.kind,
                classes,
            )
        )
    return format_table(
        ["scenario", "arrivals", "access", "deadlines", "classes (weight)"],
        rows,
        title="Registered workload scenarios (see SCENARIOS.md)",
    )


def _log_sweep_event(event) -> None:
    """Route the unified sweep event stream onto the ``repro`` logger.

    Every CLI sweep subscribes this to ``on_event``, so per-cell progress
    notes land on stderr at INFO (``--quiet`` silences them) while table
    output stays on stdout.
    """
    if event.kind == "cell_started":
        cell = event.payload["cell"]
        _log.info(
            "  running %-10s rate=%-6g replication=%d",
            cell["protocol"], cell["arrival_rate"], cell["replication"],
        )
    elif event.kind == "cell_outcome" and not event.payload["ok"]:
        error = event.payload["error"]
        _log.warning(
            "  cell %s failed: %s: %s",
            event.payload["cell"]["protocol"], error["type"], error["message"],
        )



def _render_records(records, fmt: str) -> str:
    if fmt == "json":
        return records_to_json(records)
    import io

    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue().rstrip("\n")


def _open_store_or_exit(
    path: str, backend: Optional[str] = None
) -> BaseRunStore:
    try:
        return open_store(path, backend=backend)
    except (ConfigurationError, ReproError) as exc:
        raise SystemExit(f"scc-experiments: error: {exc}")


def _load_store_or_exit(
    path: Optional[str], backend: Optional[str] = None, create: bool = False
) -> BaseRunStore:
    """Open a store for a ``results`` action.

    Only ``merge``'s destination may be new (``create``): every other
    action reads, so a mistyped path must fail rather than read as an
    empty store (or leave one behind).
    """
    if not path:
        raise SystemExit(
            "scc-experiments: error: the results command needs --store PATH"
        )
    if not create and not os.path.exists(path):
        raise SystemExit(f"scc-experiments: error: no run store at {path}")
    store = _open_store_or_exit(path, backend)
    if store.corrupt_lines:
        _log.warning(
            "note: %d corrupt line(s) in %s were skipped (interrupted "
            "append?); affected cells will re-run",
            store.corrupt_lines, path,
        )
    return store


def _results_list(store: BaseRunStore) -> str:
    rows = []
    for record in store.records():
        rows.append(
            (
                record.fingerprint[:12],
                record.scenario or "-",
                record.protocol,
                record.arrival_rate,
                record.replication,
                record.summary.committed,
                record.summary.missed_ratio,
                record.summary.system_value,
                record.elapsed,
            )
        )
    table = format_table(
        ["cell", "scenario", "protocol", "rate", "rep", "committed",
         "missed %", "value %", "elapsed s"],
        rows,
        title=f"Run store {store.path}: {len(store)} record(s)",
    )
    return table


def _results_diff(store: BaseRunStore, against: Optional[str]) -> tuple[str, int]:
    if not against:
        raise SystemExit(
            "scc-experiments: error: results diff needs --against OTHER_STORE"
        )
    other = _load_store_or_exit(against)
    report = diff_records(store.records(), other.records())
    lines = [
        f"diff {store.path} (A) vs {against} (B):",
        f"  identical cells : {report['identical']}",
        f"  changed cells   : {len(report['changed'])}",
        f"  only in A       : {len(report['only_a'])}",
        f"  only in B       : {len(report['only_b'])}",
    ]
    if report["changed"]:
        rows = []
        for rec_a, _rec_b, deltas in report["changed"]:
            for metric, (value_a, value_b) in sorted(deltas.items()):
                rows.append(
                    (rec_a.fingerprint[:12], rec_a.protocol,
                     rec_a.arrival_rate, rec_a.replication, metric,
                     value_a, value_b)
                )
        lines.append("")
        lines.append(format_table(
            ["cell", "protocol", "rate", "rep", "metric", "A", "B"], rows,
        ))
    # Any difference — drifted metrics *or* cells covered by only one
    # store — is a nonzero exit, so a CI gate can't pass on mismatched
    # grids that merely avoid contradicting each other.
    differs = report["changed"] or report["only_a"] or report["only_b"]
    return "\n".join(lines), 1 if differs else 0


def _results_merge(args: argparse.Namespace) -> tuple[str, int]:
    if not args.merge_from:
        raise SystemExit(
            "scc-experiments: error: results merge needs "
            "--from SHARD[,SHARD...]"
        )
    shard_paths = [p.strip() for p in args.merge_from.split(",") if p.strip()]
    if not shard_paths:
        raise SystemExit(
            "scc-experiments: error: results merge needs at least one "
            "shard path in --from"
        )
    sources = [_load_store_or_exit(path) for path in shard_paths]
    dest = _load_store_or_exit(args.store, args.store_backend, create=True)
    merged = merge_stores(dest, sources)
    dest.close()
    for source in sources:
        source.close()
    return (
        f"merged {merged} record(s) from {len(sources)} shard(s) into "
        f"{dest.path} ({len(dest)} record(s) total)"
    ), 0


def _results_compact(store: BaseRunStore) -> tuple[str, int]:
    dropped = store.compact()
    store.close()
    return (
        f"compacted {store.path}: dropped {dropped} superseded/corrupt "
        f"row(s), {len(store)} record(s) kept"
    ), 0


def _run_results(args: argparse.Namespace) -> tuple[str, int]:
    action = args.action or "list"
    if action == "merge":
        return _results_merge(args)
    store = _load_store_or_exit(args.store, args.store_backend)
    if action == "list":
        return _results_list(store), 0
    if action == "export":
        fmt = args.format if args.format != "table" else "json"
        return _render_records(store.records(), fmt), 0
    if action == "compact":
        return _results_compact(store)
    return _results_diff(store, args.against)


def _list_protocol_specs() -> str:
    from repro.protocols.registry import ProtocolSpec, all_protocol_families

    rows = []
    for family in all_protocol_families():
        params = "; ".join(
            f"{p.name}={_format_param_default(p.default)}"
            + (f" ({'|'.join(map(str, p.choices))})" if p.choices else "")
            for p in family.params
        )
        rows.append(
            (
                family.name,
                ProtocolSpec.create(family.name).label,
                params or "-",
                family.description,
            )
        )
    return format_table(
        ["family", "default label", "parameters (defaults)", "description"],
        rows,
        title=(
            "Registered protocol families — spec strings are "
            "family?param=value&...  (e.g. scc-ks?k=3)"
        ),
    )


def _format_param_default(value) -> str:
    return "none" if value is None else str(value)


def _run_spec(args: argparse.Namespace) -> str:
    from repro.experiments.spec import ExperimentSpec

    if not args.action:
        raise SystemExit(
            "scc-experiments: error: run needs a spec file "
            "(scc-experiments run experiment.json)"
        )
    try:
        spec = ExperimentSpec.load(args.action)
    except ConfigurationError as exc:
        raise SystemExit(f"scc-experiments: error: {exc}")
    if args.log_level is None and (spec.telemetry or {}).get("log_level"):
        # The spec's default log level applies when no flag overrides it.
        configure_logging(
            level=spec.telemetry["log_level"], quiet=args.quiet
        )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.transactions is not None:
        overrides["num_transactions"] = args.transactions
    rates = _parse_rates(args.rates)
    store_path = args.store if args.store else spec.store
    store_backend = (
        args.store_backend if args.store_backend else spec.store_backend
    )
    store = (
        _open_store_or_exit(store_path, store_backend) if store_path else None
    )
    stored_before = len(store) if store is not None else 0
    started = time.time()
    try:
        if args.transactions is not None:
            # Clamp the warmup to a tenth of a reduced --transactions
            # override, so the spec's warmup cannot exceed the run.
            probe = spec.to_config()
            overrides["warmup_commits"] = min(
                probe.warmup_commits, args.transactions // 10
            )
        config = spec.to_config(**overrides)

        def execute():
            return spec.run(
                executor=args.executor,
                workers=args.workers,
                store=store,
                arrival_rates=rates,
                config=config,
                trace=args.trace,
                on_event=_log_sweep_event,
            )

        if args.profile:
            from repro.experiments.profiling import capture_profile

            results, report = capture_profile(execute, dump_to=args.profile)
            _log.info("profile written to %s", args.profile)
            _log.debug("%s", report)
        else:
            results = execute()
    except ConfigurationError as exc:
        raise SystemExit(f"scc-experiments: error: {exc}")
    elapsed = time.time() - started
    some = next(iter(results.values()))
    scenario_name = spec.scenario_name() or "paper baseline"
    status = (
        f"[spec {args.action}: {scenario_name}, "
        f"{config.num_transactions} txns x {config.replications} reps, "
        f"{elapsed:.1f}s]"
    )
    if store is not None:
        total_cells = len(results) * len(some.arrival_rates) * config.replications
        computed = len(store) - stored_before
        status += (
            f" [store: {store_path} — {total_cells - computed}/{total_cells} "
            f"cells reused, {computed} computed]"
        )
    if args.format != "table":
        # Machine-readable output: the canonical RunRecord serialization
        # of exactly this run's grid; human status goes to stderr.  With
        # a store, serve the stored records (they carry the cells' real
        # wall-clock) — records_from_results only fills the no-store path.
        records = records_from_results(
            config, results, spec.protocol_mapping(),
            scenario=spec.scenario_name(),
        )
        if store is not None:
            records = [store.get(r.fingerprint) or r for r in records]
        _log.info("%s", status)
        return _render_records(records, args.format)
    rate_axis = (
        list(rates) if rates is not None else list(some.arrival_rates)
    )
    tables = []
    for title, extract in (
        ("Missed Ratio (%)", _METRIC_EXTRACTORS["missed"]),
        ("Average Tardiness (s)", _METRIC_EXTRACTORS["tardiness"]),
        ("System Value (%)", _METRIC_EXTRACTORS["value"]),
    ):
        tables.append(
            format_series_table(
                "arrival_rate",
                rate_axis,
                {name: extract(result) for name, result in results.items()},
                title=f"{title} [{scenario_name}]",
            )
        )
    return "\n\n".join(tables) + f"\n{status}"


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the experiment gateway until drained."""
    from repro.gateway import ClientQuotas, GatewayApp
    from repro.gateway.server import serve as _serve

    if not args.store:
        raise SystemExit(
            "scc-experiments: error: serve needs --store PATH "
            "(the shared run store every experiment reads and appends)"
        )
    store = _open_store_or_exit(args.store, args.store_backend)
    quota_kwargs = {}
    if args.max_queued_cells is not None:
        quota_kwargs["max_queued_cells"] = args.max_queued_cells
    if args.max_experiments is not None:
        quota_kwargs["max_experiments"] = args.max_experiments
    try:
        quotas = ClientQuotas(**quota_kwargs)
        app = GatewayApp(
            store=store,
            workers=args.workers if args.workers is not None else 2,
            workdir=args.workdir,
            quotas=quotas,
        )
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"scc-experiments: error: {exc}")
    try:
        _serve(app, host=args.host, port=args.port)
    finally:
        app.close()
    return 0


def _run_fig3(args: argparse.Namespace) -> str:
    from repro.core.shadow_counts import figure3_table

    rows = figure3_table(max_n=args.max_n)
    return format_table(
        ["n", "SCC-OB shadows", "SCC-CB concurrent", "SCC-CB total"],
        rows,
        title="Figure 3 / §2: shadows per transaction for n pairwise conflicts",
    )


def _trace_cells(path):
    """Split a trace file into per-cell event batches.

    Returns:
        ``(cells, markers)`` — one list of
        :class:`~repro.telemetry.events.TraceEvent` per traced sweep
        cell (a trace without ``cell_start`` markers is one cell), and
        the marker payloads in file order.
    """
    from repro.telemetry.events import TraceEvent, is_marker, iter_trace

    cells: list[list] = []
    markers: list[dict] = []
    current: list = []
    for payload in iter_trace(path):
        if is_marker(payload):
            markers.append(payload)
            if payload.get("marker") == "cell_start":
                if current:
                    cells.append(current)
                current = []
            continue
        try:
            current.append(TraceEvent.from_dict(payload))
        except ConfigurationError as exc:
            raise SystemExit(f"scc-experiments: error: bad trace event: {exc}")
    if current:
        cells.append(current)
    return cells, markers


def _trace_summarize(path) -> str:
    """The ``repro trace summarize`` report: per-kind counts and extent."""
    from repro.telemetry.events import EVENT_KINDS

    cells, markers = _trace_cells(path)
    events = [event for cell in cells for event in cell]
    if not events:
        return f"trace {path}: no events"
    counts = {kind: 0 for kind in EVENT_KINDS}
    txns = set()
    for event in events:
        counts[event.kind] += 1
        txns.add(event.txn)
    rows = [(kind, count) for kind, count in counts.items() if count]
    t_min = min(event.time for event in events)
    t_max = max(event.time for event in events)
    return format_table(
        ["event kind", "count"],
        rows,
        title=(
            f"Trace {path}: {len(events)} events, {len(cells)} cell(s), "
            f"{len(txns)} transaction(s), t={t_min:g}..{t_max:g}"
        ),
    )


def _trace_timeline(path, width: int = 72) -> str:
    """The ``repro trace timeline`` rendering of the first traced cell."""
    from repro.analysis.timeline import TimelineRecorder

    cells, _ = _trace_cells(path)
    if not cells:
        return f"trace {path}: no events"
    if len(cells) > 1:
        _log.warning(
            "note: %s holds %d cells; the timeline shows the first "
            "(lanes restart per cell)",
            path, len(cells),
        )
    return TimelineRecorder.from_trace(cells[0]).render(width=width)


def _run_trace(args: argparse.Namespace) -> str:
    action = args.action or "summarize"
    path = args.path
    if action not in ("summarize", "timeline"):
        if path is None:
            # Friendly shorthand: `repro trace events.jsonl` summarizes.
            action, path = "summarize", action
        else:
            raise SystemExit(
                f"scc-experiments: error: unknown trace action {action!r} "
                "(choose summarize or timeline)"
            )
    if path is None:
        raise SystemExit(
            "scc-experiments: error: the trace command needs a trace file "
            "(scc-experiments trace summarize events.jsonl)"
        )
    try:
        if action == "timeline":
            return _trace_timeline(path)
        return _trace_summarize(path)
    except ConfigurationError as exc:
        raise SystemExit(f"scc-experiments: error: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="scc-experiments",
        description="Regenerate the figures of Bestavros & Braoudakis 1995.",
    )
    parser.add_argument(
        "command",
        choices=["run", "fig3", "scenarios", "specs", "results", "trace",
                 "serve"],
        help="'run' to execute a JSON experiment spec (the paper's "
        "figures are the files under specs/), 'fig3' for the analytic "
        "shadow-count table, 'serve' to run the experiment gateway, "
        "'scenarios'/'specs' to list the workload and "
        "protocol registries, 'results' to inspect a run store, or "
        "'trace' to inspect a JSONL trace file",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        metavar="action|spec.json",
        help="for the results command: list (default), export "
        "(--format json|csv), diff (--against), merge (--from), or "
        "compact; for the run command: the experiment-spec JSON file to "
        "execute; for the trace command: summarize (default) or timeline",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        metavar="trace.jsonl",
        help="for the trace command: the JSONL trace file to inspect",
    )
    parser.add_argument(
        "--transactions", type=int, default=None,
        help="run: completed transactions per run (default: the spec's "
        "value)",
    )
    parser.add_argument(
        "--replications", type=int, default=None,
        help="run: independent replications per point (default: the "
        "spec's value)",
    )
    parser.add_argument(
        "--rates", type=str, default=None,
        help="run: comma-separated arrival rates (tps), e.g. "
        "10,50,100,150,200 (default: the spec's axis)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run: root seed (default: the spec's value)",
    )
    parser.add_argument(
        "--executor", choices=available_executors(), default=None,
        help="sweep executor (default: serial, or distributed when "
        "--workers > 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="run: worker processes claiming cells from the job board "
        "(default: serial; one per core with --executor distributed); "
        "serve: worker threads (default: 2)",
    )
    parser.add_argument(
        "--max-n", dest="max_n", type=int, default=8,
        help="fig3: largest number of pairwise-conflicting transactions",
    )
    parser.add_argument(
        "--store", type=str, default=None,
        help="run store: completed cells are reused, fresh cells appended "
        "as they finish (interrupted sweeps resume); existing files are "
        "opened by content, new paths by extension (see --store-backend)",
    )
    parser.add_argument(
        "--store-backend", dest="store_backend",
        choices=list(STORE_BACKENDS), default=None,
        help="force the --store backend (default: sniff existing files by "
        "content, pick by extension otherwise — .sqlite/.sqlite3/.db mean "
        "sqlite, .jsonl/.json/.ndjson mean jsonl; an unrecognized "
        "extension with nothing to sniff is an error asking for this flag)",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="serve: bind address for the gateway (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8642,
        help="serve: bind port for the gateway (default: 8642; 0 picks "
        "a free port)",
    )
    parser.add_argument(
        "--workdir", type=str, default=None,
        help="serve: directory for the gateway's job board (default: a "
        "private temp dir; give a path to persist queue state across "
        "restarts)",
    )
    parser.add_argument(
        "--max-queued-cells", dest="max_queued_cells", type=int,
        default=None,
        help="serve: per-client ceiling on enqueued-but-unfinished cells "
        "(default: 10000)",
    )
    parser.add_argument(
        "--max-experiments", dest="max_experiments", type=int, default=None,
        help="serve: per-client ceiling on concurrently running "
        "experiments (default: 8)",
    )
    parser.add_argument(
        "--from", dest="merge_from", type=str, default=None,
        metavar="SHARD[,SHARD...]",
        help="results merge: comma-separated shard stores to fold into "
        "--store (idempotent; later shards win on conflicting cells)",
    )
    parser.add_argument(
        "--format", choices=["table", "json", "csv"], default="table",
        help="output format for sweep results and 'results export' "
        "(json/csv emit the canonical RunRecord serialization)",
    )
    parser.add_argument(
        "--against", type=str, default=None,
        help="results diff: the run store to compare --store against",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="run: record the typed lifecycle event stream of every cell "
        "to a JSONL trace file (serial executor only; inspect with "
        "'trace summarize'/'trace timeline')",
    )
    parser.add_argument(
        "--profile", type=str, default=None, metavar="PATH",
        help="run: dump a cProfile capture of the sweep to PATH "
        "(loadable with pstats.Stats)",
    )
    parser.add_argument(
        "--log-level", dest="log_level", choices=list(LOG_LEVELS),
        default=None,
        help="verbosity of the stderr diagnostics (default: info, or the "
        "spec's telemetry.log_level for the run command)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress all diagnostics below error (overrides --log-level)",
    )
    args = parser.parse_args(argv)

    configure_logging(level=args.log_level or "info", quiet=args.quiet)
    if args.action is not None and args.command not in (
        "results", "run", "trace",
    ):
        raise SystemExit(
            f"scc-experiments: error: '{args.action}' only applies to the "
            "results, run, and trace commands"
        )
    if args.path is not None and args.command != "trace":
        raise SystemExit(
            f"scc-experiments: error: '{args.path}' only applies to the "
            "trace command"
        )
    if (args.trace or args.profile) and args.command != "run":
        flag = "--trace" if args.trace else "--profile"
        raise SystemExit(
            f"scc-experiments: error: {flag} only applies to the run "
            "command"
        )
    if args.command == "results" and args.action not in (
        None, "list", "export", "diff", "merge", "compact",
    ):
        raise SystemExit(
            f"scc-experiments: error: unknown results action "
            f"{args.action!r} (choose list, export, diff, merge, or compact)"
        )
    if args.merge_from is not None and (
        args.command != "results" or args.action != "merge"
    ):
        raise SystemExit(
            "scc-experiments: error: --from only applies to the "
            "'results merge' command"
        )
    if args.format != "table" and args.command in (
        "fig3", "scenarios", "specs",
    ):
        # fig3/scenarios/specs produce no run records at all.
        raise SystemExit(
            f"scc-experiments: error: --format {args.format} is not "
            f"supported by the '{args.command}' command; it applies to "
            "'run' and 'results export'"
        )
    if (
        args.max_queued_cells is not None or args.max_experiments is not None
    ) and args.command != "serve":
        raise SystemExit(
            "scc-experiments: error: --max-queued-cells/--max-experiments "
            "only apply to the serve command"
        )
    if args.command == "results":
        output, code = _run_results(args)
        print(output)
        return code
    if args.command == "run":
        print(_run_spec(args))
        return 0
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "trace":
        print(_run_trace(args))
        return 0
    if args.command == "scenarios":
        print(_list_scenarios())
    elif args.command == "specs":
        print(_list_protocol_specs())
    else:
        print(_run_fig3(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
