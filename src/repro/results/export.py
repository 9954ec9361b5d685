"""Exporting and diffing stored run records (CSV/JSON, stdlib only).

The CLI's ``--format json|csv`` flags and the ``results`` subcommand are
thin wrappers over these helpers; they are equally usable from notebooks
or scripts (``RunStore(path).records()`` feeds straight in).
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping, Optional, Sequence, TYPE_CHECKING

from repro._record import fields
from repro.metrics.stats import RunSummary
from repro.results.fingerprint import cell_fingerprint, config_payload, digest
from repro.results.record import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SweepResult
    from repro.protocols.registry import ProtocolSpec

__all__ = [
    "CSV_COLUMNS",
    "DIFF_METRICS",
    "diff_records",
    "records_from_results",
    "records_to_json",
    "write_csv",
]

_RECORD_COLUMNS = (
    "fingerprint",
    "config_fingerprint",
    "scenario",
    "protocol",
    "protocol_spec",
    "arrival_rate",
    "replication",
    "seed",
    "elapsed",
)

_SUMMARY_SCALARS = tuple(
    name
    for name in fields(RunSummary)
    if name not in ("per_class_missed", "per_class_value")
)

#: Flat CSV header: record coordinates, then every scalar summary metric,
#: then the per-class breakdowns as embedded JSON objects.
CSV_COLUMNS = _RECORD_COLUMNS + _SUMMARY_SCALARS + (
    "per_class_missed",
    "per_class_value",
)

#: Fields the ``results diff`` report compares cell by cell: *every*
#: summary field (scalars and per-class breakdowns) — the round-trip is
#: bit-exact by design, so any drift at all must surface.
DIFF_METRICS = fields(RunSummary)


def records_from_results(
    config: "ExperimentConfig",
    results: Mapping[str, "SweepResult"],
    protocol_specs: Mapping[str, "ProtocolSpec"],
    scenario: Optional[str] = None,
) -> list[RunRecord]:
    """Flatten assembled sweep results into canonical records.

    Used by the CLI export path when results were computed in memory (no
    store): the records carry ``elapsed=0.0`` since per-cell wall-clock is
    not retained by :class:`~repro.experiments.runner.SweepResult`.

    ``protocol_specs`` maps each result label to its registry
    :class:`~repro.protocols.registry.ProtocolSpec`, so every record
    carries the fingerprint a store-backed run of the same sweep
    persists, and the spec dict.
    """
    payload = config_payload(config)
    config_fp = digest(payload)
    records = []
    for protocol, sweep in results.items():
        spec = protocol_specs[protocol]
        for rate, summaries in zip(sweep.arrival_rates, sweep.replications):
            for replication, summary in enumerate(summaries):
                records.append(
                    RunRecord(
                        fingerprint=cell_fingerprint(
                            payload, spec, rate, replication
                        ),
                        config_fingerprint=config_fp,
                        protocol=protocol,
                        arrival_rate=float(rate),
                        replication=replication,
                        seed=config.seed,
                        summary=summary,
                        scenario=scenario,
                        protocol_spec=spec.to_dict(),
                    )
                )
    return records


def records_to_json(records: Iterable[RunRecord]) -> str:
    """Render records as an indented JSON array of canonical dicts."""
    return json.dumps(
        [record.to_dict() for record in records], indent=2, sort_keys=True
    )


def write_csv(records: Iterable[RunRecord], stream: IO[str]) -> int:
    """Write records as CSV (:data:`CSV_COLUMNS` header) to ``stream``.

    Per-class breakdowns are embedded as JSON objects in their cells so the
    row stays flat without exploding the header per class name.  Returns
    the number of data rows written.
    """
    import csv

    # Explicit \n terminator: csv defaults to \r\n, which text-mode streams
    # on Windows would double-translate and Unix tooling chokes on.
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for record in records:
        summary = record.summary
        row = [
            record.fingerprint,
            record.config_fingerprint,
            record.scenario if record.scenario is not None else "",
            record.protocol,
            # The registry identity, embedded as JSON like the per-class
            # columns ("" for schema-1 records), so label collisions
            # stay distinguishable without decoding hashes.
            (
                json.dumps(record.protocol_spec, sort_keys=True)
                if record.protocol_spec is not None
                else ""
            ),
            record.arrival_rate,
            record.replication,
            record.seed,
            record.elapsed,
        ]
        row.extend(getattr(summary, name) for name in _SUMMARY_SCALARS)
        row.append(json.dumps(summary.per_class_missed, sort_keys=True))
        row.append(json.dumps(summary.per_class_value, sort_keys=True))
        writer.writerow(row)
        count += 1
    return count


def diff_records(
    records_a: Iterable[RunRecord],
    records_b: Iterable[RunRecord],
    metrics: Sequence[str] = DIFF_METRICS,
) -> dict:
    """Compare two record sets cell by cell (joined on fingerprint).

    Because a fingerprint pins the cell's *inputs*, two stores disagreeing
    on a shared fingerprint means the *code* produced different results —
    exactly the drift a determinism-sensitive refactor wants to surface.
    Every summary field is compared by default, so there are no blind
    spots for drift in secondary measures (restarts, wasted work, ...).

    Returns a dict with:

    * ``changed`` — rows ``(record_a, record_b, {metric: (a, b)})`` for
      shared cells where any compared metric differs;
    * ``identical`` — count of shared cells with all metrics equal;
    * ``only_a`` / ``only_b`` — records exclusive to either side.
    """
    index_a = {record.fingerprint: record for record in records_a}
    index_b = {record.fingerprint: record for record in records_b}
    shared = [fp for fp in index_a if fp in index_b]
    changed = []
    identical = 0
    for fp in shared:
        rec_a, rec_b = index_a[fp], index_b[fp]
        deltas = {}
        for metric in metrics:
            value_a = getattr(rec_a.summary, metric)
            value_b = getattr(rec_b.summary, metric)
            if value_a != value_b:
                deltas[metric] = (value_a, value_b)
        if deltas:
            changed.append((rec_a, rec_b, deltas))
        else:
            identical += 1
    return {
        "changed": changed,
        "identical": identical,
        "only_a": [index_a[fp] for fp in index_a if fp not in index_b],
        "only_b": [index_b[fp] for fp in index_b if fp not in index_a],
    }
