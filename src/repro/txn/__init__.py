"""Transaction model and workload generation."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "WorkloadGenerator": "repro.txn.generator",
    "ArrivalOrderPolicy": "repro.txn.priority",
    "EarliestDeadlineFirst": "repro.txn.priority",
    "HighestValueFirst": "repro.txn.priority",
    "PriorityPolicy": "repro.txn.priority",
    "ValueDensityPolicy": "repro.txn.priority",
    "Step": "repro.txn.spec",
    "TransactionSpec": "repro.txn.spec",
})
