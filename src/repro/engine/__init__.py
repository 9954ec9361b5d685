"""Discrete-event simulation kernel.

This package is the substrate every experiment runs on: the simulation
engine and its workload tensors (:mod:`repro.engine.array`), the fused
shadow-pool driver of the SCC step loop
(:mod:`repro.engine.shadow_pool`), and named reproducible random streams
(:mod:`repro.engine.rng`).

Events fire in the deterministic ``(time, priority, sequence)`` total
order, so a run is reproducible bit for bit from its seed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ArraySimulator": "repro.engine.array",
    "WorkloadTensors": "repro.engine.array",
    "RandomStreams": "repro.engine.rng",
})
