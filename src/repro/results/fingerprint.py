"""Content fingerprints for experiment cells.

The paper's §4 variance-reduction discipline makes every sweep cell — one
``(config, protocol, arrival rate, replication)`` point — a *pure function
of its inputs*: the workload stream is derived from ``(seed, replication)``
only, and the protocol is deterministic given that stream.  A cell's
result can therefore be addressed by a stable hash of those inputs, which
is what lets the persistent store (:mod:`repro.results.store`) skip
already-computed cells across process lifetimes.

Canonical form
--------------
Fingerprints hash the *canonical JSON* rendering of a plain-dict payload:
keys sorted, no whitespace, ``allow_nan=False``.  Python's shortest-repr
float serialization is deterministic and injective, so two configs hash
alike iff their payloads are equal.  The hash is SHA-256 of the UTF-8
bytes, its hex digest cut to :data:`FINGERPRINT_HEX_CHARS`.

It is computed by the interpreter's built-in SHA-256 (``_sha2`` on
CPython 3.12 and later, ``_sha256`` before), not ``hashlib``: the
digests are the same, and importing ``hashlib`` would map OpenSSL's
``libcrypto`` into every process that fingerprints a cell (on CPython
3.11, x86-64 Linux: 3.5 MB more peak RSS for a serial ``repro run``
and about 4.5 ms more import time).
``hashlib.sha256`` is the fallback, used only on an interpreter built
without either module.

What is — and is not — hashed
-----------------------------
The config payload covers everything that changes a single cell's result:
transaction classes, database size, service times, transaction/warmup
counts, root seed, serializability checking, the full workload spec
(arrival process, access pattern, deadline policy), and the server count
of a finite resource pool.  ``num_servers`` enters only when set, so
every infinite-resource cell keeps the fingerprint it had before the
field existed.  It deliberately
*excludes* ``arrival_rates``, ``replications``, and ``confidence_level``:
those shape the grid and its post-processing, not any one cell — so
extending a sweep axis or adding replications reuses every cell already
stored.

Protocol identity
-----------------
Every sweep roster entry is a registry
:class:`~repro.protocols.registry.ProtocolSpec`, and the fingerprint
hashes the *full spec* — family plus every parameter, defaults filled
in — so parameterized variants such as ``scc-ks?k=2`` vs ``scc-ks?k=3``
can never share a cached cell, whatever display labels a caller gives
them.  Display labels are never hashed.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

try:  # CPython >= 3.12
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # CPython 3.10-3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without either
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.protocols.registry import ProtocolSpec

__all__ = [
    "FINGERPRINT_HEX_CHARS",
    "canonical_dumps",
    "cell_fingerprint",
    "config_fingerprint",
    "config_payload",
    "digest",
]

#: Hex characters kept from the sha256 digest (128 bits — collisions are
#: not a practical concern at experiment-grid cardinalities).
FINGERPRINT_HEX_CHARS = 32


def canonical_dumps(payload) -> str:
    """Serialize ``payload`` to canonical JSON (sorted keys, compact)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest(payload) -> str:
    """Stable hex fingerprint of a JSON-serializable payload."""
    encoded = canonical_dumps(payload).encode("utf-8")
    return _sha256(encoded).hexdigest()[:FINGERPRINT_HEX_CHARS]


def config_payload(config: "ExperimentConfig") -> dict:
    """The canonical plain-dict form of everything that shapes one cell.

    ``config.workload is None`` (the paper baseline) and an explicitly
    constructed default :class:`~repro.workloads.generator.WorkloadSpec`
    produce the same payload — they generate bit-identical workloads, so
    they must fingerprint alike.  ``num_servers`` appears only for a
    finite resource pool.
    """
    from repro.workloads.generator import WorkloadSpec

    spec = config.workload if config.workload is not None else WorkloadSpec()
    payload = {
        "classes": [cls.to_dict() for cls in config.classes],
        "num_pages": config.num_pages,
        "cpu_time": config.cpu_time,
        "io_time": config.io_time,
        "num_transactions": config.num_transactions,
        "warmup_commits": config.warmup_commits,
        "seed": config.seed,
        "check_serializability": config.check_serializability,
        "workload": spec.to_dict(),
    }
    if config.num_servers is not None:
        payload["num_servers"] = config.num_servers
    return payload


def config_fingerprint(config: "ExperimentConfig") -> str:
    """Fingerprint of the cell-shaping part of an experiment config."""
    return digest(config_payload(config))


def cell_fingerprint(
    config: "ExperimentConfig | dict",
    protocol: "ProtocolSpec",
    arrival_rate: float,
    replication: int,
) -> str:
    """Fingerprint of one sweep cell.

    Args:
        config: The experiment config, or a precomputed
            :func:`config_payload` dict (callers fingerprinting a whole
            grid should precompute the payload once).
        protocol: The cell's
            :class:`~repro.protocols.registry.ProtocolSpec`; its
            ``fingerprint_payload()`` is the hashed identity.
        arrival_rate: The cell's arrival rate (tps).
        replication: The cell's replication index.
    """
    payload = config if isinstance(config, dict) else config_payload(config)
    return digest(
        {
            "config": payload,
            "protocol": protocol.fingerprint_payload(),
            "arrival_rate": float(arrival_rate),
            "replication": int(replication),
        }
    )
