"""The logical RTDBS model (paper Figure 12) and resource managers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "RTDBSystem": "repro.system.model",
    "FiniteResources": "repro.system.resources",
    "InfiniteResources": "repro.system.resources",
    "ResourceManager": "repro.system.resources",
})
