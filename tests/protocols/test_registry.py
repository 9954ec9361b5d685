"""Tests for the protocol registry: specs, parsing, round-trips, builds."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.protocols.base import CCProtocol
from repro.protocols.registry import (
    ParamSpec,
    ProtocolFamily,
    ProtocolSpec,
    all_protocol_families,
    available_protocols,
    get_protocol_family,
    parse_protocol_spec,
    protocol_spec,
    register_protocol,
)

ROSTER = (
    "scc-2s",
    "scc-ks",
    "scc-cb",
    "scc-dc",
    "scc-vw",
    "2pl-pa",
    "occ",
    "occ-bc",
    "wait-50",
    "serial",
)


class TestRegistry:
    def test_full_paper_roster_is_registered(self):
        assert set(ROSTER) <= set(available_protocols())

    def test_available_protocols_sorted(self):
        assert list(available_protocols()) == sorted(available_protocols())

    def test_all_families_iterates_in_name_order(self):
        names = [family.name for family in all_protocol_families()]
        assert names == sorted(names)

    def test_unknown_family_lists_registry(self):
        with pytest.raises(ConfigurationError, match="scc-2s"):
            get_protocol_family("scc-99x")

    def test_register_rejects_duplicates_without_replace(self):
        family = get_protocol_family("serial")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol(family)
        assert register_protocol(family, replace=True) is family

    def test_every_family_documents_itself(self):
        for family in all_protocol_families():
            assert family.description
            for param in family.params:
                assert param.doc


class TestEveryRegisteredProtocol:
    @pytest.mark.parametrize("family", ROSTER)
    def test_constructible_by_name_with_defaults(self, family):
        protocol = ProtocolSpec.create(family).build()
        assert isinstance(protocol, CCProtocol)

    @pytest.mark.parametrize("family", ROSTER)
    def test_spec_is_a_factory(self, family):
        spec = ProtocolSpec.create(family)
        first, second = spec(), spec()
        assert type(first) is type(second)
        assert first is not second  # fresh instance per call

    @pytest.mark.parametrize("family", ROSTER)
    def test_json_round_trip(self, family):
        spec = ProtocolSpec.create(family)
        rebuilt = ProtocolSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    @pytest.mark.parametrize("family", ROSTER)
    def test_canonical_string_round_trip(self, family):
        spec = ProtocolSpec.create(family)
        assert parse_protocol_spec(spec.canonical()) == spec


class TestSpecNormalization:
    def test_defaults_fill_in(self):
        assert parse_protocol_spec("scc-ks") == parse_protocol_spec("scc-ks?k=2")

    def test_param_order_is_irrelevant(self):
        assert parse_protocol_spec(
            "scc-vw?period=0.02&k=3"
        ) == parse_protocol_spec("scc-vw?k=3&period=0.02")

    def test_int_params_coerce_from_strings(self):
        assert parse_protocol_spec("scc-ks?k=3").params["k"] == 3

    def test_float_params_coerce_from_ints(self):
        spec = ProtocolSpec.create("wait-50", wait_threshold=1)
        assert spec.params["wait_threshold"] == 1.0
        assert isinstance(spec.params["wait_threshold"], float)

    def test_none_spelled_out(self):
        spec = parse_protocol_spec("scc-ks?k=none")
        assert spec.params["k"] is None
        assert spec.canonical() == "scc-ks?k=none"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="declared"):
            parse_protocol_spec("scc-ks?shadows=3")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            parse_protocol_spec("occ-xyz?x=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            parse_protocol_spec("scc-ks?k=soon")

    def test_choice_param_rejected_outside_choices(self):
        with pytest.raises(ConfigurationError, match="replacement"):
            parse_protocol_spec("scc-ks?replacement=random")

    def test_malformed_tokens_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_protocol_spec("scc-ks?k")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_protocol_spec("scc-ks?k=2&k=3")

    def test_protocol_spec_coercion_helper(self):
        spec = ProtocolSpec.create("occ-bc")
        assert protocol_spec(spec) is spec
        assert protocol_spec("occ-bc") == spec
        assert protocol_spec({"family": "occ-bc"}) == spec
        with pytest.raises(ConfigurationError):
            protocol_spec(42)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ProtocolSpec.from_dict({"family": "occ", "extra": 1})


class TestLabels:
    def test_scc_ks_label_convention(self):
        assert parse_protocol_spec("scc-ks?k=2").label == "SCC-2S"
        assert parse_protocol_spec("scc-ks?k=3").label == "SCC-3S"
        assert parse_protocol_spec("scc-ks?k=none").label == "SCC-CB (k=inf)"

    def test_wait_label_convention(self):
        assert parse_protocol_spec("wait-50").label == "WAIT-50"
        assert (
            parse_protocol_spec("wait-50?wait_threshold=0.25").label
            == "WAIT-25"
        )

    def test_non_label_params_appended(self):
        label = parse_protocol_spec("scc-ks?k=3&replacement=value-aware").label
        assert label == "SCC-3S [replacement=value-aware]"

    def test_default_params_not_appended(self):
        assert parse_protocol_spec("scc-vw").label == "SCC-VW"


class TestBuiltProtocols:
    def test_parameters_reach_the_protocol(self):
        protocol = parse_protocol_spec("scc-ks?k=5").build()
        assert protocol.k == 5
        wait = parse_protocol_spec("wait-50?wait_threshold=0.75").build()
        assert wait._threshold == 0.75

    def test_replacement_choice_reaches_the_protocol(self):
        from repro.core.replacement import ValueAwareReplacement

        protocol = parse_protocol_spec(
            "scc-ks?replacement=value-aware"
        ).build()
        assert isinstance(protocol.replacement, ValueAwareReplacement)

    def test_vw_parameters_reach_the_termination_policy(self):
        protocol = parse_protocol_spec(
            "scc-vw?period=0.02&commit_threshold=0.6"
        ).build()
        assert protocol._termination.period == 0.02
        assert protocol._termination.commit_threshold == 0.6

    def test_invalid_protocol_parameters_surface_at_build(self):
        # The registry validates types; domain checks stay in the
        # protocol constructors and surface when the spec is built.
        with pytest.raises(ConfigurationError):
            parse_protocol_spec("scc-ks?k=0").build()


class TestFingerprintPayload:
    def test_payload_covers_family_and_all_params(self):
        payload = parse_protocol_spec("scc-ks?k=3").fingerprint_payload()
        assert payload == {
            "family": "scc-ks",
            "params": {"k": 3, "replacement": "lbfo"},
        }

    def test_variants_have_distinct_payloads(self):
        assert (
            parse_protocol_spec("scc-ks?k=2").fingerprint_payload()
            != parse_protocol_spec("scc-ks?k=3").fingerprint_payload()
        )


# ----------------------------------------------------------------------
# property tests: round-trips hold across the whole parameter space
# ----------------------------------------------------------------------

_K_VALUES = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
_FRACTIONS = st.floats(
    min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
)
_REPLACEMENTS = st.sampled_from(["lbfo", "deadline-aware", "value-aware"])


@st.composite
def protocol_specs(draw):
    """Random valid ProtocolSpec across every registered family."""
    family = draw(st.sampled_from(ROSTER))
    params = {}
    if family in ("scc-ks", "scc-dc", "scc-vw"):
        params["k"] = draw(_K_VALUES)
        params["replacement"] = draw(_REPLACEMENTS)
    if family in ("scc-dc", "scc-vw"):
        params["period"] = draw(_FRACTIONS)
    if family == "scc-dc":
        params["epsilon"] = draw(_FRACTIONS)
    if family == "scc-vw":
        params["commit_threshold"] = draw(_FRACTIONS)
    if family == "wait-50":
        params["wait_threshold"] = draw(_FRACTIONS)
    return ProtocolSpec.create(family, **params)


@given(protocol_specs())
def test_property_dict_round_trip(spec):
    assert ProtocolSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@given(protocol_specs())
def test_property_canonical_string_round_trip(spec):
    assert parse_protocol_spec(spec.canonical()) == spec


def test_registry_defaults_match_constructor_defaults():
    # The single-source-of-truth guard: every registered parameter whose
    # name matches a constructor parameter must carry the same default,
    # so a tuning change in a protocol class cannot silently diverge
    # from what specs (and therefore store fingerprints) assume.
    import inspect

    from repro.core.scc_dc import SCCDC
    from repro.core.scc_ks import SCCkS
    from repro.core.scc_vw import SCCVW
    from repro.protocols.wait50 import Wait50

    constructors = {
        "scc-ks": SCCkS,
        "scc-dc": SCCDC,
        "scc-vw": SCCVW,
        "wait-50": Wait50,
    }
    for family_name, cls in constructors.items():
        signature = inspect.signature(cls.__init__)
        for param in get_protocol_family(family_name).params:
            if param.name not in signature.parameters:
                continue
            ctor_default = signature.parameters[param.name].default
            if param.name == "replacement":
                # Constructors take None -> LBFO; the registry spells the
                # same default as the "lbfo" choice string.
                assert ctor_default is None and param.default == "lbfo"
                continue
            assert ctor_default == param.default, (family_name, param.name)


def test_param_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown kind"):
        ParamSpec("x", "complex", default=None, optional=True).coerce(1)


def test_family_param_lookup_errors_list_declared():
    family = ProtocolFamily(name="tmp", builder=lambda: None)
    with pytest.raises(ConfigurationError, match=r"\(none\)"):
        family.param("k")
