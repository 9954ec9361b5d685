"""The versioned experiment record: one cell's inputs and outcome.

A :class:`RunRecord` is the unit the persistent store deals in — the cell
coordinates (protocol label, arrival rate, replication), the registry
:class:`~repro.protocols.registry.ProtocolSpec` the cell ran, the
fingerprints that make it content-addressable (the spec, never the
label, is the protocol's identity), and the full
:class:`~repro.metrics.stats.RunSummary`.  Records round-trip through
canonical dicts/JSON bit-identically (floats survive via shortest-repr),
which is what lets a resumed sweep assemble results indistinguishable from
a cold run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro._record import FrozenRecord
from repro.errors import ConfigurationError
from repro.metrics.stats import RunSummary
from repro.results.fingerprint import cell_fingerprint, config_payload, digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import CellOutcome
    from repro.protocols.registry import ProtocolSpec

__all__ = ["RECORD_SCHEMA", "RunRecord"]

#: Version stamped into every serialized record.  Bump on any change to
#: the dict layout; :meth:`RunRecord.from_dict` refuses unknown versions
#: rather than guessing.
#:
#: Schema history:
#:
#: * **1** — protocol identity is the display name only.
#: * **2** — adds ``protocol_spec``, the registry identity
#:   (``{"family", "params"}`` from
#:   :meth:`~repro.protocols.registry.ProtocolSpec.to_dict`).  Schema-1
#:   records are still *read* (as ``protocol_spec=None``) so old stores
#:   stay listable/exportable, but sweeps fingerprint protocols by their
#:   full spec, so cells recorded before the bump are re-run rather than
#:   reused.
#: * **3** — adds ``telemetry``, the run's counter/gauge block
#:   (:func:`~repro.telemetry.counters.run_telemetry`: lifecycle
#:   counters, peak gauges, events fired, wall-clock), or ``None`` when
#:   the producing runner predates telemetry.  Schema-1/2 records are
#:   still read (as ``telemetry=None``); the telemetry block is pure
#:   metadata — never part of the fingerprint — so old cached cells
#:   keep being served.
RECORD_SCHEMA = 3

_COMMON_KEYS = frozenset(
    {
        "schema",
        "fingerprint",
        "config_fingerprint",
        "scenario",
        "protocol",
        "arrival_rate",
        "replication",
        "seed",
        "elapsed",
        "summary",
    }
)

#: Exact key set per readable schema version.
_KEYS_BY_SCHEMA = {
    1: _COMMON_KEYS,
    2: _COMMON_KEYS | {"protocol_spec"},
    3: _COMMON_KEYS | {"protocol_spec", "telemetry"},
}

#: JSON type each field must carry: ``(types, name for errors, None
#: allowed)``.  A row that parses as JSON but holds, say, a list for its
#: fingerprint or a string for its rate is damage, not a record.
_FIELD_TYPES: dict[str, tuple[Any, str, bool]] = {
    "fingerprint": (str, "a string", False),
    "config_fingerprint": (str, "a string", False),
    "scenario": (str, "a string", True),
    "protocol": (str, "a string", False),
    "protocol_spec": (dict, "a dict", True),
    "arrival_rate": ((int, float), "a number", False),
    "replication": (int, "an integer", False),
    "seed": (int, "an integer", False),
    "elapsed": ((int, float), "a number", False),
    "summary": (dict, "a dict", False),
    "telemetry": (dict, "a dict", True),
}


def _is_a(value: Any, types: Any) -> bool:
    # JSON true/false are Python ints, but never a count, seed or rate.
    return isinstance(value, types) and not isinstance(value, bool)


class RunRecord(FrozenRecord):
    """One persisted experiment cell: coordinates, fingerprints, metrics.

    Attributes:
        fingerprint: Content address of the cell —
            :func:`~repro.results.fingerprint.cell_fingerprint` over the
            config payload plus ``(protocol, arrival_rate, replication)``.
        config_fingerprint: Fingerprint of the cell-shaping config alone;
            lets consumers group records by experiment without re-deriving.
        protocol: Display name as registered with the sweep.
        arrival_rate: Arrival rate of the cell (tps).
        replication: Replication index (the workload-stream selector).
        seed: Root seed the replication streams were spawned from.
        summary: The cell's full metrics.
        scenario: Registered scenario name when the sweep ran one
            (metadata only — the workload spec itself is fingerprinted).
        elapsed: Wall-clock seconds the cell took when first computed.
        protocol_spec: Registry identity of the protocol
            (:meth:`~repro.protocols.registry.ProtocolSpec.to_dict`
            form), or ``None`` for schema-1 records.
        telemetry: The run's counter/gauge telemetry block
            (:func:`~repro.telemetry.counters.run_telemetry`), or
            ``None`` for pre-telemetry records and cached schema-1/2
            cells.  Metadata only — never fingerprinted.
    """

    __slots__ = (
        "fingerprint",
        "config_fingerprint",
        "protocol",
        "arrival_rate",
        "replication",
        "seed",
        "summary",
        "scenario",
        "elapsed",
        "protocol_spec",
        "telemetry",
    )

    def __init__(
        self,
        fingerprint: str,
        config_fingerprint: str,
        protocol: str,
        arrival_rate: float,
        replication: int,
        seed: int,
        summary: RunSummary,
        scenario: Optional[str] = None,
        elapsed: float = 0.0,
        protocol_spec: Optional[dict] = None,
        telemetry: Optional[dict] = None,
    ) -> None:
        object.__setattr__(self, "fingerprint", fingerprint)
        object.__setattr__(self, "config_fingerprint", config_fingerprint)
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "arrival_rate", arrival_rate)
        object.__setattr__(self, "replication", replication)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "protocol_spec", protocol_spec)
        object.__setattr__(self, "telemetry", telemetry)

    def to_dict(self) -> dict:
        """Canonical plain-dict form, invertible by :meth:`from_dict`."""
        return {
            "schema": RECORD_SCHEMA,
            "fingerprint": self.fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "scenario": self.scenario,
            "protocol": self.protocol,
            "protocol_spec": self.protocol_spec,
            "arrival_rate": self.arrival_rate,
            "replication": self.replication,
            "seed": self.seed,
            "elapsed": self.elapsed,
            "summary": self.summary.to_dict(),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild a record from its :meth:`to_dict` form.

        Raises:
            ConfigurationError: On a wrong schema version, missing or
                unknown keys, a field of the wrong JSON type, or a
                malformed summary — the corruption signal the store's
                tolerant loader keys off.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"run record payload must be a dict, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if not _is_a(schema, int) or schema not in _KEYS_BY_SCHEMA:
            raise ConfigurationError(
                f"unsupported run-record schema {schema!r} "
                f"(this library reads schemas "
                f"{sorted(_KEYS_BY_SCHEMA)})"
            )
        required = _KEYS_BY_SCHEMA[schema]
        missing = required - set(payload)
        unknown = set(payload) - required
        if missing or unknown:
            raise ConfigurationError(
                f"run record payload mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(unknown)}"
            )
        for key in sorted(required - {"schema"}):
            types, expected, optional = _FIELD_TYPES[key]
            value = payload[key]
            if not (value is None and optional) and not _is_a(value, types):
                raise ConfigurationError(
                    f"run record {key!r} must be {expected}, "
                    f"got {type(value).__name__}"
                )
        try:
            summary = RunSummary.from_dict(payload["summary"])
        except Exception as exc:
            raise ConfigurationError(f"bad run-record summary: {exc}") from exc
        return cls(
            fingerprint=payload["fingerprint"],
            config_fingerprint=payload["config_fingerprint"],
            protocol=payload["protocol"],
            arrival_rate=payload["arrival_rate"],
            replication=payload["replication"],
            seed=payload["seed"],
            summary=summary,
            scenario=payload["scenario"],
            elapsed=payload["elapsed"],
            protocol_spec=payload.get("protocol_spec"),
            telemetry=payload.get("telemetry"),
        )

    @classmethod
    def from_outcome(
        cls,
        config: "ExperimentConfig",
        outcome: "CellOutcome",
        protocol_spec: "ProtocolSpec",
        scenario: Optional[str] = None,
        config_payload_dict: Optional[dict] = None,
    ) -> "RunRecord":
        """Build the record for one successful :class:`CellOutcome`.

        Args:
            config: The experiment config the cell ran under.
            outcome: A successful outcome (``outcome.ok`` must hold —
                failed cells are never persisted, so reruns retry them).
            protocol_spec: The cell's
                :class:`~repro.protocols.registry.ProtocolSpec`; it
                becomes both the stored ``protocol_spec`` field and the
                fingerprint identity.
            scenario: Optional scenario name, stored as metadata.
            config_payload_dict: Precomputed
                :func:`~repro.results.fingerprint.config_payload`, to
                amortize payload construction over a whole grid.
        """
        if not outcome.ok or outcome.summary is None:
            raise ConfigurationError(
                f"cannot record failed cell {outcome.cell.describe()}"
            )
        payload = (
            config_payload_dict
            if config_payload_dict is not None
            else config_payload(config)
        )
        return cls(
            fingerprint=cell_fingerprint(
                payload,
                protocol_spec,
                outcome.cell.arrival_rate,
                outcome.cell.replication,
            ),
            config_fingerprint=digest(payload),
            protocol=outcome.cell.protocol,
            arrival_rate=float(outcome.cell.arrival_rate),
            replication=outcome.cell.replication,
            seed=config.seed,
            summary=outcome.summary,
            scenario=scenario,
            elapsed=outcome.elapsed,
            protocol_spec=protocol_spec.to_dict(),
            telemetry=outcome.telemetry,
        )
