"""Discrete-event simulation kernel.

This package is the substrate every experiment runs on: the simulation
engine and its workload tensors (:mod:`repro.engine.array`) and named
reproducible random streams (:mod:`repro.engine.rng`), pure-Python
PCG64 generators that draw exactly what numpy's ``Generator`` draws, so
no module here imports numpy.  It knows
nothing of the layers above it: no module here imports
:mod:`repro.workloads`, :mod:`repro.core`, :mod:`repro.protocols` or
:mod:`repro.system` at module scope (``WorkloadTensors.from_config``
imports the workload generator when called).

Events fire in the deterministic ``(time, priority, sequence)`` total
order, so a run is reproducible bit for bit from its seed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ArraySimulator": "repro.engine.array",
    "WorkloadTensors": "repro.engine.array",
    "RandomStreams": "repro.engine.rng",
})
