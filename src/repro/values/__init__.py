"""Transaction value machinery (paper §3.1).

Value functions capture the worth of a transaction as a function of its
commit time (Jensen/Locke/Tokuda-style step functions with a linear penalty
gradient past the deadline).  Transaction classes hold the parameters the
workload generator draws transactions from; a transaction's execution time
is deterministic (its step count times the per-step service time), which
is what SCC-DC's commit deferral and SCC-VW's votes read.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TransactionClass": "repro.values.classes",
    "ValueFunction": "repro.values.value_function",
})
