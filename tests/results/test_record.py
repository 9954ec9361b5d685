"""Tests for RunRecord / RunSummary canonical serialization."""

import json

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.stats import RunSummary
from repro.results.record import RECORD_SCHEMA, RunRecord


def make_summary(**overrides) -> RunSummary:
    values = dict(
        committed=108,
        missed_ratio=2.7777777777777777,
        avg_tardiness_late=0.03860214999917,
        avg_tardiness_all=0.0010722819444214,
        system_value=99.89321508534233,
        avg_response_time=0.13119754623119,
        restarts=17,
        shadow_aborts=23,
        wasted_work=1.2345678901234567,
        useful_work=13.876543210987654,
        deferred_commits=4,
        per_class_missed={"baseline": 2.7777777777777777},
        per_class_value={"baseline": 99.89321508534233},
    )
    values.update(overrides)
    return RunSummary(**values)


def make_record(**overrides) -> RunRecord:
    values = dict(
        fingerprint="ab" * 16,
        config_fingerprint="cd" * 16,
        protocol="SCC-2S",
        arrival_rate=70.0,
        replication=1,
        seed=901995,
        summary=make_summary(),
        scenario="paper-baseline",
        elapsed=0.125,
    )
    values.update(overrides)
    return RunRecord(**values)


def test_summary_round_trips_bit_identically_through_json():
    summary = make_summary()
    rebuilt = RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert rebuilt == summary


def test_summary_from_dict_rejects_schema_drift():
    payload = make_summary().to_dict()
    payload["surprise_metric"] = 1.0
    with pytest.raises(ProtocolError, match="surprise_metric"):
        RunSummary.from_dict(payload)
    short = make_summary().to_dict()
    del short["committed"]
    with pytest.raises(ProtocolError, match="committed"):
        RunSummary.from_dict(short)


def test_record_round_trips_bit_identically_through_json():
    record = make_record()
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt == record


def test_record_serializes_schema_version():
    assert make_record().to_dict()["schema"] == RECORD_SCHEMA


def test_record_from_dict_rejects_other_schema_versions():
    payload = make_record().to_dict()
    payload["schema"] = RECORD_SCHEMA + 1
    with pytest.raises(ConfigurationError, match="schema"):
        RunRecord.from_dict(payload)


def test_schema_1_records_still_read():
    # Migration path: stores written before the protocol-spec bump stay
    # listable/exportable; the missing fields read as None.
    payload = make_record().to_dict()
    payload["schema"] = 1
    del payload["protocol_spec"]
    del payload["telemetry"]
    record = RunRecord.from_dict(payload)
    assert record.protocol == "SCC-2S"
    assert record.protocol_spec is None
    assert record.telemetry is None


def test_schema_2_records_still_read():
    # Pre-telemetry stores: the missing telemetry block reads as None.
    payload = make_record().to_dict()
    payload["schema"] = 2
    del payload["telemetry"]
    record = RunRecord.from_dict(payload)
    assert record.protocol == "SCC-2S"
    assert record.telemetry is None


def test_schema_1_payload_with_spec_key_rejected():
    payload = make_record().to_dict()
    payload["schema"] = 1  # claims v1 but carries v2/v3 keys
    del payload["telemetry"]
    with pytest.raises(ConfigurationError, match="protocol_spec"):
        RunRecord.from_dict(payload)


def test_schema_2_payload_with_telemetry_key_rejected():
    payload = make_record().to_dict()
    payload["schema"] = 2  # claims v2 but carries the v3 key
    with pytest.raises(ConfigurationError, match="telemetry"):
        RunRecord.from_dict(payload)


def test_telemetry_block_round_trips():
    telemetry = {
        "schema": 1,
        "wall_clock": 0.25,
        "events_fired": 1234,
        "peak_pending_events": 56,
        "counters": {"aborts": 3, "commits": 100},
        "gauges": {"peak_live_shadows": 7},
    }
    record = make_record(telemetry=telemetry)
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt == record
    assert rebuilt.telemetry == telemetry


def test_from_outcome_carries_telemetry():
    from repro.experiments.config import baseline_config
    from repro.experiments.parallel import CellOutcome, SweepCell
    from repro.protocols.registry import parse_protocol_spec

    config = baseline_config()
    cell = SweepCell(
        index=0, protocol="SCC-2S", rate_index=0, arrival_rate=50.0,
        replication=0,
    )
    telemetry = {"schema": 1, "counters": {"commits": 1}, "gauges": {}}
    outcome = CellOutcome(
        cell=cell, summary=make_summary(), error=None, elapsed=0.5,
        telemetry=telemetry,
    )
    record = RunRecord.from_outcome(
        config, outcome, parse_protocol_spec("scc-2s")
    )
    assert record.telemetry == telemetry


def test_protocol_spec_round_trips():
    spec = {"family": "scc-ks", "params": {"k": 3, "replacement": "lbfo"}}
    record = make_record(protocol_spec=spec)
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert rebuilt == record
    assert rebuilt.protocol_spec == spec


def test_from_outcome_uses_spec_identity_when_given():
    from repro.experiments.config import baseline_config
    from repro.experiments.parallel import CellOutcome, SweepCell
    from repro.protocols.registry import parse_protocol_spec
    from repro.results.fingerprint import cell_fingerprint

    config = baseline_config()
    cell = SweepCell(
        index=0, protocol="SCC-3S", rate_index=0, arrival_rate=50.0,
        replication=0,
    )
    outcome = CellOutcome(
        cell=cell, summary=make_summary(), error=None, elapsed=0.5
    )
    spec = parse_protocol_spec("scc-ks?k=3")
    record = RunRecord.from_outcome(config, outcome, protocol_spec=spec)
    assert record.fingerprint == cell_fingerprint(config, spec, 50.0, 0)
    assert record.protocol == "SCC-3S"
    assert record.protocol_spec == spec.to_dict()


def test_record_from_dict_rejects_missing_and_unknown_keys():
    payload = make_record().to_dict()
    payload["extra"] = 1
    with pytest.raises(ConfigurationError, match="extra"):
        RunRecord.from_dict(payload)
    short = make_record().to_dict()
    del short["protocol"]
    with pytest.raises(ConfigurationError, match="protocol"):
        RunRecord.from_dict(short)


def test_record_from_dict_rejects_non_dict():
    with pytest.raises(ConfigurationError):
        RunRecord.from_dict("not a dict")


def test_record_none_scenario_round_trips():
    record = make_record(scenario=None)
    assert RunRecord.from_dict(record.to_dict()).scenario is None
