"""Tests for cell/config fingerprints: stability, sensitivity, reuse."""

import math

import pytest

from repro.experiments.config import baseline_config, two_class_config
from repro.results.fingerprint import (
    canonical_dumps,
    cell_fingerprint,
    config_fingerprint,
    config_payload,
    digest,
)
from repro.protocols.registry import parse_protocol_spec
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import get_scenario


def test_canonical_dumps_is_key_order_independent():
    assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})


def test_canonical_dumps_rejects_nan():
    with pytest.raises(ValueError):
        canonical_dumps({"x": math.nan})


def test_digest_is_stable_across_calls():
    payload = config_payload(baseline_config())
    assert digest(payload) == digest(config_payload(baseline_config()))


def test_config_fingerprint_differs_across_configs():
    fingerprints = {
        config_fingerprint(baseline_config()),
        config_fingerprint(two_class_config()),
        config_fingerprint(baseline_config(seed=7)),
        config_fingerprint(baseline_config(num_transactions=999)),
        config_fingerprint(get_scenario("flash-sale-hotspot").to_config()),
    }
    assert len(fingerprints) == 5


def test_grid_axes_do_not_enter_the_fingerprint():
    # Extending the sweep axis or replication count must reuse stored
    # cells, so arrival_rates/replications are excluded by design.
    base = baseline_config()
    wider = baseline_config(arrival_rates=(10.0, 999.0), replications=9)
    assert config_fingerprint(base) == config_fingerprint(wider)


def test_none_workload_equals_explicit_default_spec():
    # config.workload=None means the paper baseline; an explicit default
    # WorkloadSpec generates a bit-identical workload and must hash alike.
    assert config_fingerprint(baseline_config()) == config_fingerprint(
        baseline_config(workload=WorkloadSpec())
    )


def test_server_count_enters_the_fingerprint_only_when_set():
    # Infinite resources (num_servers=None) keep the payload, and so
    # every stored cell, as it was before the field existed: these are
    # the digests of the paper configs from before it.  Each pool size
    # is a cell identity of its own.
    assert "num_servers" not in config_payload(baseline_config())
    assert config_fingerprint(baseline_config()) == (
        "8a28e85f9e94ecbd06273d9cd092ec44"
    )
    assert config_fingerprint(two_class_config()) == (
        "7cb195ac3e46890d866d594f9b655ee0"
    )
    fingerprints = {
        config_fingerprint(baseline_config(num_servers=servers))
        for servers in (None, 1, 2, 4)
    }
    assert len(fingerprints) == 4


def test_cell_fingerprint_covers_coordinates():
    config = baseline_config()
    scc, occ = parse_protocol_spec("scc-2s"), parse_protocol_spec("occ-bc")
    base = cell_fingerprint(config, scc, 50.0, 0)
    assert cell_fingerprint(config, scc, 50.0, 0) == base
    assert cell_fingerprint(config, occ, 50.0, 0) != base
    assert cell_fingerprint(config, scc, 60.0, 0) != base
    assert cell_fingerprint(config, scc, 50.0, 1) != base


def test_cell_fingerprint_accepts_precomputed_payload():
    config = baseline_config()
    payload = config_payload(config)
    spec = parse_protocol_spec("scc-2s")
    assert cell_fingerprint(payload, spec, 50.0, 0) == cell_fingerprint(
        config, spec, 50.0, 0
    )


# ----------------------------------------------------------------------
# protocol-spec identity (the registry closes the name-collision trap)
# ----------------------------------------------------------------------


def test_cell_fingerprint_distinguishes_parameterized_variants():
    # The regression the registry exists for: scc-ks?k=2 vs scc-ks?k=3
    # must never share a cell, even though both could display "SCC-kS".
    config = baseline_config()
    k2 = cell_fingerprint(config, parse_protocol_spec("scc-ks?k=2"), 50.0, 0)
    k3 = cell_fingerprint(config, parse_protocol_spec("scc-ks?k=3"), 50.0, 0)
    assert k2 != k3


def test_cell_fingerprint_spec_is_stable_across_spellings():
    # Default-filled and explicit spellings of the same spec hash alike.
    config = baseline_config()
    assert cell_fingerprint(
        config, parse_protocol_spec("scc-ks"), 50.0, 0
    ) == cell_fingerprint(
        config, parse_protocol_spec("scc-ks?k=2&replacement=lbfo"), 50.0, 0
    )


def _cell_digest(payload, protocol):
    return digest(
        {
            "config": payload,
            "protocol": protocol,
            "arrival_rate": 50.0,
            "replication": 0,
        }
    )


def test_cell_fingerprint_spec_differs_from_bare_name():
    # Schema-1 records were addressed by display name; sweeps hash the
    # spec, so such cells are recomputed rather than silently reused.
    payload = config_payload(baseline_config())
    assert cell_fingerprint(
        payload, parse_protocol_spec("scc-2s"), 50.0, 0
    ) != _cell_digest(payload, "SCC-2S")


def test_cell_fingerprint_hashes_the_spec_payload():
    # The hashed protocol identity is the spec's full payload (family +
    # every parameter); pinning it keeps stored cells reusable.
    spec = parse_protocol_spec("wait-50?wait_threshold=0.25")
    payload = config_payload(baseline_config())
    assert cell_fingerprint(payload, spec, 50.0, 0) == _cell_digest(
        payload, spec.fingerprint_payload()
    )
