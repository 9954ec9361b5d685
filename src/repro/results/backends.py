"""Store backend registry: open-by-name, file sniffing, and shard merge.

Everything that takes a store *path* — ``run_sweep(store=...)``, the CLI
``--store`` flags, the smoke scripts — funnels through
:func:`open_store`, so backend selection lives in exactly one place:

1. an explicit ``backend=`` name wins;
2. an existing non-empty file is sniffed by content (SQLite's 16-byte
   magic header), so resuming a store never depends on its extension;
3. otherwise the path's extension decides — ``.sqlite``/``.sqlite3``/
   ``.db`` mean SQLite, ``.jsonl``/``.json``/``.ndjson`` mean JSONL —
   and a path with no content to sniff *and* no recognized extension
   raises :class:`AmbiguousStoreError` (whether the file is missing or
   pre-created empty) instead of silently guessing.

:func:`merge_stores` combines per-worker shards into one store — the
``results merge`` verb — by replaying shard records in order, skipping
records the destination already holds verbatim, so merging is idempotent
and last-wins resolution matches a single-store run.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.errors import ConfigurationError
from repro.results.store import BaseRunStore, PathLike, RunStore

__all__ = [
    "AmbiguousStoreError",
    "STORE_BACKENDS",
    "merge_stores",
    "open_store",
    "store_class",
]

#: Registered store backend names, in default-preference order.
STORE_BACKENDS = ("jsonl", "sqlite")

#: First bytes of every SQLite 3 database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Path extensions that select the SQLite backend for new stores.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Path extensions that select the JSONL backend for empty files.
_JSONL_SUFFIXES = (".jsonl", ".json", ".ndjson")


class AmbiguousStoreError(ConfigurationError, ValueError):
    """A store path gives no signal which backend owns it.

    Raised by :func:`sniff_backend` for a path with no content to sniff
    (a missing file or a pre-created empty one) whose extension names no
    registered backend: silently defaulting could bind a long-running
    service (the gateway opens its shared store this way at startup) to
    the wrong backend for the store's whole life.  The rule is the same
    for new and empty files, so pre-touching a store path never changes
    which backend it opens as.  ``ValueError`` is in the bases so
    callers treating bad paths as value errors catch it too.
    """

    def __init__(self, path: str) -> None:
        super().__init__(
            f"cannot infer a store backend for {path!r}: no content to "
            "sniff (the file is missing or empty) and the extension "
            f"names no backend (candidates: {', '.join(STORE_BACKENDS)}); "
            "pass an explicit backend or use a recognized extension "
            f"(sqlite: {', '.join(_SQLITE_SUFFIXES)}; "
            f"jsonl: {', '.join(_JSONL_SUFFIXES)})"
        )
        self.path = path
        self.candidates = STORE_BACKENDS


def store_class(backend: str) -> type:
    """The store class registered under ``backend``.

    The SQLite backend (and with it :mod:`sqlite3`) is imported only
    when it is asked for.

    Raises:
        ConfigurationError: For a name not in :data:`STORE_BACKENDS`.
    """
    if backend == "jsonl":
        return RunStore
    if backend == "sqlite":
        from repro.results.sqlite_store import SQLiteRunStore

        return SQLiteRunStore
    raise ConfigurationError(
        f"unknown store backend {backend!r} "
        f"(choose from {', '.join(STORE_BACKENDS)})"
    )


def sniff_backend(path: PathLike) -> str:
    """Decide the backend for ``path`` without an explicit name.

    An existing non-empty file is identified by content — the SQLite
    magic header — so a store keeps opening correctly whatever it is
    named.  With no content to sniff (missing or empty file alike), a
    recognized extension decides.

    Raises:
        AmbiguousStoreError: For a path with no content to sniff and an
            extension naming no backend — there is no declared intent,
            so guessing could silently bind the caller to the wrong
            backend.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_SQLITE_MAGIC))
    except OSError:
        head = b""
    if head:
        return "sqlite" if head == _SQLITE_MAGIC else "jsonl"
    lowered = path.lower()
    if lowered.endswith(_SQLITE_SUFFIXES):
        return "sqlite"
    if lowered.endswith(_JSONL_SUFFIXES):
        return "jsonl"
    raise AmbiguousStoreError(path)


def open_store(
    store: Union[PathLike, BaseRunStore], backend: Optional[str] = None
) -> BaseRunStore:
    """Open (or pass through) a run store.

    Args:
        store: A path to open, or an already-open store instance (which
            is returned as-is).
        backend: Optional backend name from :data:`STORE_BACKENDS`; when
            omitted the path is sniffed via :func:`sniff_backend`.

    Raises:
        ConfigurationError: On an unknown backend name, or when an
            explicit ``backend`` contradicts an already-open instance.
    """
    if isinstance(store, BaseRunStore):
        if backend is not None and backend != store.backend:
            raise ConfigurationError(
                f"store {store.path!r} is already open as "
                f"{store.backend!r}; cannot reopen as {backend!r}"
            )
        return store
    if backend is None:
        backend = sniff_backend(store)
    return store_class(backend)(store)


def merge_stores(
    dest: BaseRunStore, sources: Iterable[BaseRunStore]
) -> int:
    """Append every shard record the destination does not already hold.

    Records are replayed in each source's first-appended order, so
    last-wins resolution matches a run that had written straight into
    ``dest``.  A record the destination already stores verbatim is
    skipped, making the merge idempotent — re-merging the same shard is
    a no-op.

    Args:
        dest: The combined store (any backend).
        sources: Shard stores to fold in, in precedence order — later
            shards win where fingerprints collide with different
            payloads.

    Returns:
        Number of records appended to ``dest``.
    """
    merged = 0
    for source in sources:
        for record in source.records():
            if dest.get(record.fingerprint) == record:
                continue
            dest.append(record)
            merged += 1
    return merged
