"""Paged database substrate with per-page version counters."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Database": "repro.db.database",
    "WriteBatch": "repro.db.database",
    "Page": "repro.db.page",
})
