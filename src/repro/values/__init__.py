"""Transaction value machinery (paper §3.1).

Value functions capture the worth of a transaction as a function of its
commit time (Jensen/Locke/Tokuda-style step functions with a linear penalty
gradient past the deadline).  Execution-time distributions provide the
survival functions that SCC-DC's probabilistic commit deferral relies on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TransactionClass": "repro.values.classes",
    "DeterministicExecution": "repro.values.distributions",
    "EmpiricalExecution": "repro.values.distributions",
    "ExecutionDistribution": "repro.values.distributions",
    "ExponentialExecution": "repro.values.distributions",
    "NormalExecution": "repro.values.distributions",
    "UniformExecution": "repro.values.distributions",
    "ValueFunction": "repro.values.value_function",
})
