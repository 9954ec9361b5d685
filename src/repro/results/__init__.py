"""Persistent experiment records: durable, resumable, re-analyzable runs.

The subsystem has three pieces:

* :mod:`repro.results.fingerprint` — content addresses for sweep cells
  (stable hashes of config + workload spec + cell coordinates);
* :mod:`repro.results.record` — the versioned :class:`RunRecord` schema
  with canonical dict/JSON round-trip;
* :mod:`repro.results.store` / :mod:`repro.results.sqlite_store` — the
  append-only JSONL :class:`RunStore` and the WAL-mode
  :class:`SQLiteRunStore`, sharing last-wins index semantics over
  :class:`~repro.results.store.BaseRunStore`;
* :mod:`repro.results.backends` — :func:`open_store` (backend by name or
  file sniffing) and :func:`merge_stores` for per-worker shards.

``run_sweep(..., store=path)`` looks completed cells up by fingerprint and
skips them, appending fresh outcomes as they complete — a killed sweep
resumes where it died, and the assembled results are bit-identical to a
cold run.  :mod:`repro.results.export` turns stored records into CSV/JSON
and diffs stores cell by cell.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "canonical_dumps": "repro.results.fingerprint",
    "cell_fingerprint": "repro.results.fingerprint",
    "config_fingerprint": "repro.results.fingerprint",
    "config_payload": "repro.results.fingerprint",
    "digest": "repro.results.fingerprint",
    "RECORD_SCHEMA": "repro.results.record",
    "RunRecord": "repro.results.record",
    "BaseRunStore": "repro.results.store",
    "RunStore": "repro.results.store",
    "write_json_atomic": "repro.results.store",
    "SQLiteRunStore": "repro.results.sqlite_store",
    "STORE_BACKENDS": "repro.results.backends",
    "AmbiguousStoreError": "repro.results.backends",
    "merge_stores": "repro.results.backends",
    "open_store": "repro.results.backends",
    "store_class": "repro.results.backends",
    "CSV_COLUMNS": "repro.results.export",
    "DIFF_METRICS": "repro.results.export",
    "diff_records": "repro.results.export",
    "records_from_results": "repro.results.export",
    "records_to_json": "repro.results.export",
    "write_csv": "repro.results.export",
})
