"""Tests for cell/config fingerprints: stability, sensitivity, reuse."""

import hashlib
import importlib.util
import math
import sys

import pytest

import repro.results.fingerprint as fingerprint_module
from repro.experiments.config import baseline_config, two_class_config
from repro.results.fingerprint import (
    FINGERPRINT_HEX_CHARS,
    canonical_dumps,
    cell_fingerprint,
    config_fingerprint,
    config_payload,
    digest,
)
from repro.protocols.registry import parse_protocol_spec
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import available_scenarios, get_scenario


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


# ----------------------------------------------------------------------
# the hash itself: the built-in SHA-256 against hashlib, on every path
# ----------------------------------------------------------------------

#: The interpreter's own SHA-256 modules, newest name first.
BUILTIN_SHA256 = ("_sha2", "_sha256")


def _oracle(payload) -> str:
    """The fingerprint of ``payload`` as ``hashlib`` computes it."""
    encoded = canonical_dumps(payload).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:FINGERPRINT_HEX_CHARS]


def _sized(length: int, text: str):
    """A payload whose canonical JSON is ``length`` bytes long.

    ``text`` padded with ``x``; length 1 is the bare number ``7``.
    """
    if length == 1:
        return 7
    pad = length - len(canonical_dumps({"s": text}).encode("utf-8"))
    payload = {"s": text + "x" * pad}
    assert len(canonical_dumps(payload).encode("utf-8")) == length
    return payload


#: SHA-256 pads a message with one 0x80 byte and its 8-byte length into
#: 64-byte blocks, so 55 bytes is the longest one-block message, 56-64
#: need a second block, and 119/120 sit on the same edge one block on.
EDGE_LENGTHS = (1, 55, 56, 63, 64, 65, 119, 120, 4000)

#: Canonical JSON escapes non-ASCII as ``\uXXXX`` (a surrogate pair
#: above the BMP), so both payload kinds hash ASCII bytes.
EDGE_PAYLOADS = [
    _sized(length, text)
    for length in EDGE_LENGTHS
    for text in ("", "d\u00e9j\u00e0 \u6f22\u5b57 \U0001f680")
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS)
def test_digest_equals_hashlib_at_the_block_edges(payload):
    assert digest(payload) == _oracle(payload)


def _scenario_cell(name: str):
    """One cell of scenario ``name``: its fingerprint and ``hashlib``'s."""
    config = get_scenario(name).to_config()
    spec = parse_protocol_spec("scc-2s")
    rate = config.arrival_rates[0]
    payload = {
        "config": config_payload(config),
        "protocol": spec.fingerprint_payload(),
        "arrival_rate": float(rate),
        "replication": 0,
    }
    return cell_fingerprint(config, spec, rate, 0), _oracle(payload)


@pytest.mark.parametrize("name", available_scenarios())
def test_cell_fingerprint_equals_hashlib_on_every_scenario(name):
    fingerprint, expected = _scenario_cell(name)
    assert fingerprint == expected


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in BUILTIN_SHA256),
    reason="this interpreter has no built-in SHA-256",
)
def test_fingerprints_use_the_builtin_sha256():
    # hashlib would map OpenSSL's libcrypto into every process that
    # fingerprints a cell; the built-in module computes the same digest.
    assert fingerprint_module._sha256.__module__ in BUILTIN_SHA256


def test_fallback_to_hashlib_keeps_every_digest(monkeypatch):
    # An interpreter built without the built-in modules: both imports
    # fail, and the module hashes through hashlib instead.
    for name in BUILTIN_SHA256:
        monkeypatch.setitem(sys.modules, name, None)
    try:
        importlib.reload(fingerprint_module)
        assert fingerprint_module._sha256 is hashlib.sha256
        for payload in EDGE_PAYLOADS:
            assert fingerprint_module.digest(payload) == _oracle(payload)
        for name in available_scenarios():
            fingerprint, expected = _scenario_cell(name)
            assert fingerprint == expected, name
        assert fingerprint_module.config_fingerprint(baseline_config()) == (
            "8a28e85f9e94ecbd06273d9cd092ec44"
        )
    finally:
        monkeypatch.undo()
        importlib.reload(fingerprint_module)
