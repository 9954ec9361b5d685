"""Correctness analysis: committed histories and serializability checking."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CommittedTransaction": "repro.analysis.history",
    "History": "repro.analysis.history",
    "check_serializable": "repro.analysis.serializability",
    "precedence_graph": "repro.analysis.serializability",
    "serialization_order": "repro.analysis.serializability",
    "TimelineEvent": "repro.analysis.timeline",
    "TimelineRecorder": "repro.analysis.timeline",
    "TimelineRow": "repro.analysis.timeline",
})
