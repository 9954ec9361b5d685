"""Discrete-event simulation kernel.

This package is the substrate every experiment runs on: the pure
state-transition kernels both engines share
(:mod:`repro.engine.kernels`), a deterministic event queue
(:mod:`repro.engine.events`), the reference simulator loop and clock
(:mod:`repro.engine.simulator`), the array-native engine
(:mod:`repro.engine.array`), and named reproducible random streams
(:mod:`repro.engine.rng`).

Engine selection happens through :func:`~repro.engine.array.build_simulator`;
both engines fire events in the identical ``(time, priority, sequence)``
total order, so simulation results are bit-identical across them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ENGINE_NAMES": "repro.engine.array",
    "ArraySimulator": "repro.engine.array",
    "WorkloadTensors": "repro.engine.array",
    "build_simulator": "repro.engine.array",
    "Event": "repro.engine.events",
    "EventQueue": "repro.engine.events",
    "RandomStreams": "repro.engine.rng",
    "Simulator": "repro.engine.simulator",
})
