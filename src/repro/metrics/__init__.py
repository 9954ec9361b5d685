"""Performance measurement: per-run collectors, confidence intervals, reports."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ConfidenceInterval": "repro.metrics.confidence",
    "mean_confidence_interval": "repro.metrics.confidence",
    "format_series_table": "repro.metrics.report",
    "format_table": "repro.metrics.report",
    "MetricsCollector": "repro.metrics.stats",
    "RunSummary": "repro.metrics.stats",
})
