"""Concurrency-control protocols: shared machinery, baselines, registry."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CCProtocol": "repro.protocols.base",
    "Execution": "repro.protocols.base",
    "ExecutionState": "repro.protocols.base",
    "ReadRecord": "repro.protocols.base",
    "BasicOCC": "repro.protocols.occ",
    "OCCBroadcastCommit": "repro.protocols.occ_bc",
    "ProtocolFamily": "repro.protocols.registry",
    "ProtocolSpec": "repro.protocols.registry",
    "all_protocol_families": "repro.protocols.registry",
    "available_protocols": "repro.protocols.registry",
    "get_protocol_family": "repro.protocols.registry",
    "parse_protocol_spec": "repro.protocols.registry",
    "protocol_spec": "repro.protocols.registry",
    "register_protocol": "repro.protocols.registry",
    "SerialExecution": "repro.protocols.serial",
    "TwoPhaseLockingPA": "repro.protocols.twopl_pa",
    "Wait50": "repro.protocols.wait50",
})
