"""Tests for the declarative experiment API: spec round-trips, builder,
equivalence with hand-built protocols, and spec-based store identity."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scc_2s import SCC2S
from repro.errors import ConfigurationError
from repro.experiments.config import baseline_config
from repro.experiments.runner import normalize_protocols, run_once, run_sweep
from repro.experiments.spec import SPEC_SCHEMA, Experiment, ExperimentSpec
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.protocols.registry import ProtocolSpec, parse_protocol_spec
from repro.results.backends import open_store
from repro.results.store import RunStore
from repro.workloads.scenarios import available_scenarios, get_scenario

SMOKE = dict(num_transactions=120, warmup_commits=12, replications=1)


def small_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        protocols=("scc-2s", "occ-bc"),
        arrival_rates=(60.0, 140.0),
        replications=1,
        num_transactions=120,
        warmup_commits=12,
    )
    fields.update(overrides)
    protocols = fields.pop("protocols")
    return ExperimentSpec.create(protocols, **fields)


class TestSpecConstruction:
    def test_create_coerces_strings_and_dicts(self):
        spec = ExperimentSpec.create(
            ["scc-ks?k=3", {"family": "occ-bc"}, ProtocolSpec.create("serial")]
        )
        assert [p.family for p in spec.protocols] == [
            "scc-ks", "occ-bc", "serial",
        ]

    def test_needs_at_least_one_protocol(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ExperimentSpec(protocols=())

    def test_rejects_raw_strings_in_constructor(self):
        with pytest.raises(ConfigurationError, match="ProtocolSpec"):
            ExperimentSpec(protocols=("scc-2s",))

    def test_rejects_callable_entries_everywhere(self):
        builds = (
            lambda entry: ExperimentSpec(protocols=(entry,)),
            lambda entry: ExperimentSpec.create([entry]),
            lambda entry: ExperimentSpec.from_dict({"protocols": [entry]}),
            lambda entry: Experiment.baseline().protocols(entry),
        )
        for entry in (SCC2S, lambda: SCC2S()):
            for build in builds:
                with pytest.raises(ConfigurationError) as excinfo:
                    build(entry)
                assert "'scc-ks?k=3'" in str(excinfo.value)
                assert "register_protocol" in str(excinfo.value)

    def test_scenario_name_and_inline_def_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ExperimentSpec(
                protocols=(ProtocolSpec.create("scc-2s"),),
                scenario="paper-baseline",
                scenario_def=get_scenario("flash-sale-hotspot"),
            )

    def test_unknown_scenario_rejected_at_create(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ExperimentSpec.create(["scc-2s"], scenario="black-friday")


class TestSerialization:
    def test_dict_round_trip(self):
        spec = small_spec(scenario="flash-sale-hotspot", store="runs.jsonl")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_through_disk(self, tmp_path):
        spec = small_spec(executor="distributed", workers=2, seed=7)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_inline_scenario_round_trips(self):
        spec = small_spec(scenario=get_scenario("bursty-telecom"))
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.scenario_def == get_scenario("bursty-telecom")

    def test_schema_is_stamped_and_checked(self):
        payload = small_spec().to_dict()
        assert payload["schema"] == SPEC_SCHEMA
        payload["schema"] = SPEC_SCHEMA + 1
        with pytest.raises(ConfigurationError, match="schema"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = small_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            ExperimentSpec.from_dict(payload)

    def test_minimal_shorthand_accepted(self):
        # Hand-written spec files may use compact protocol strings and
        # omit every optional key.
        spec = ExperimentSpec.from_dict({"protocols": ["scc-ks?k=3"]})
        assert spec.protocols == (parse_protocol_spec("scc-ks?k=3"),)
        assert spec.scenario is None

    def test_bad_json_reports_cleanly(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.load(path)

    def test_missing_file_reports_cleanly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentSpec.load(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("arrival_rates", 5),
            ("arrival_rates", [[70]]),
            ("arrival_rates", [None]),
            ("protocols", 5),
            ("num_transactions", "x"),
            ("warmup_commits", "x"),
            ("scenario_def", [1]),
            # "scenario_def.FIELD": one wrongly typed field of an inline
            # scenario body.
            ("scenario_def.arrivals", 5),
            ("scenario_def.access", [1]),
            ("scenario_def.arrival_rates", 5),
            ("scenario_def.num_pages", "x"),
            ("scenario_def.deadlines", "x"),
            ("scenario_def.name", 5),
        ],
    )
    def test_wrongly_typed_field_is_a_configuration_error(self, key, value):
        key, _, field = key.partition(".")
        if field:
            value = {"name": "inline", "description": "typed body", field: value}
        payload = {"protocols": ["scc-2s"], key: value}
        with pytest.raises(ConfigurationError, match=field or key):
            ExperimentSpec.from_dict(payload)


# Property: from_dict(to_dict()) == spec over a broad slice of the space.
_SCENARIOS = st.one_of(st.none(), st.sampled_from(available_scenarios()))
_PROTOCOLS = st.lists(
    st.sampled_from(
        [
            "scc-2s",
            "occ",
            "occ-bc",
            "serial",
            "2pl-pa",
            "scc-ks?k=3",
            "scc-ks?k=none",
            "scc-vw?period=0.02",
            "wait-50?wait_threshold=0.25",
        ]
    ),
    min_size=1,
    max_size=4,
    unique=True,
)
_RATES = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=5,
        unique=True,
    ),
)
_OPT_INT = st.one_of(st.none(), st.integers(min_value=1, max_value=10_000))


@settings(
    max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    protocols=_PROTOCOLS,
    scenario=_SCENARIOS,
    rates=_RATES,
    replications=_OPT_INT,
    transactions=_OPT_INT,
    seed=_OPT_INT,
)
def test_property_spec_round_trips(
    protocols, scenario, rates, replications, transactions, seed
):
    spec = ExperimentSpec.create(
        protocols,
        scenario=scenario,
        arrival_rates=rates,
        replications=replications,
        num_transactions=transactions,
        seed=seed,
    )
    assert ExperimentSpec.from_dict(json.loads(spec.to_json())) == spec


class TestBuilder:
    def test_issue_style_chain_builds_the_expected_spec(self):
        spec = (
            Experiment.scenario("flash-sale-hotspot")
            .protocols("scc-2s", "occ-bc")
            .rates(20, 120, step=20)
            .replications(10)
            .store("runs.jsonl")
            .build()
        )
        assert spec.scenario == "flash-sale-hotspot"
        assert spec.arrival_rates == (20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
        assert spec.replications == 10
        assert spec.store == "runs.jsonl"
        assert [p.label for p in spec.protocols] == ["SCC-2S", "OCC-BC"]

    def test_rates_explicit_points(self):
        spec = Experiment.baseline().protocols("serial").rates(40, 100, 160).build()
        assert spec.arrival_rates == (40.0, 100.0, 160.0)

    def test_rates_step_validation(self):
        with pytest.raises(ConfigurationError, match="exactly two"):
            Experiment.baseline().rates(1, 2, 3, step=1)
        with pytest.raises(ConfigurationError, match="step must be"):
            Experiment.baseline().rates(1, 2, step=-1)
        with pytest.raises(ConfigurationError, match="at least one"):
            Experiment.baseline().rates()

    def test_scenario_accepts_inline_scenario(self):
        scenario = get_scenario("diurnal-oltp")
        spec = Experiment.scenario(scenario).protocols("occ").build()
        assert spec.scenario is None
        assert spec.scenario_def == scenario

    def test_executor_and_workers(self):
        spec = (
            Experiment.baseline()
            .protocols("occ")
            .executor("distributed", workers=4)
            .build()
        )
        assert spec.executor == "distributed"
        assert spec.workers == 4

    def test_from_spec_round_trips_through_builder(self):
        original = small_spec(scenario="trace-replay", executor="serial")
        assert Experiment.from_spec(original).build() == original


class TestToConfig:
    def test_baseline_defaults(self):
        config = ExperimentSpec.create(["scc-2s"]).to_config()
        assert config == baseline_config()

    def test_spec_fields_override_scenario_defaults(self):
        spec = small_spec(scenario="flash-sale-hotspot", seed=7)
        config = spec.to_config()
        assert config.seed == 7
        assert config.num_transactions == 120
        assert config.arrival_rates == (60.0, 140.0)
        assert config.workload == get_scenario(
            "flash-sale-hotspot"
        ).workload_spec()

    def test_keyword_overrides_beat_spec_fields(self):
        config = small_spec().to_config(num_transactions=64, warmup_commits=6)
        assert config.num_transactions == 64

    def test_paper_two_class_scenario_matches_two_class_config(self):
        from repro.experiments.config import two_class_config

        config = get_scenario("paper-two-class").to_config()
        legacy = two_class_config()
        assert config.classes == legacy.classes
        assert config.num_pages == legacy.num_pages


class TestAxesThatCannotRun:
    """A rate or seed no cell can run is refused before any cell runs."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("arrival_rates", [60.0, -5.0], "positive finite"),
            ("arrival_rates", [0], "positive finite"),
            # JSON's 1e309 parses to inf.
            ("arrival_rates", [json.loads("1e309")], "positive finite"),
            ("seed", -1, "non-negative"),
        ],
    )
    def test_from_dict_spec_refuses_to_build_a_config(self, key, value, message):
        payload = {"schema": SPEC_SCHEMA, "protocols": ["scc-2s"], key: value}
        spec = ExperimentSpec.from_dict(payload)
        with pytest.raises(ConfigurationError, match=message):
            spec.to_config()
        with pytest.raises(ConfigurationError, match=message):
            spec.run(num_transactions=40, warmup_commits=4)

    def test_nan_rate_override_refused_by_run_sweep(self):
        with pytest.raises(ConfigurationError, match="positive finite"):
            small_spec().run(arrival_rates=[float("nan")])


class TestRunEquivalence:
    def test_spec_run_bit_identical_to_legacy_run_sweep(self):
        # The oracle is the pre-spec idiom: hand-built protocol classes,
        # one run_once per cell.
        config = baseline_config(**SMOKE, arrival_rates=(60.0, 140.0))
        spec_results = small_spec().run()
        hand_built = {"SCC-2S": SCC2S, "OCC-BC": OCCBroadcastCommit}
        assert set(spec_results) == set(hand_built)
        for name, factory in hand_built.items():
            sweep = spec_results[name]
            for rate, summaries in zip(sweep.arrival_rates, sweep.replications):
                for replication, summary in enumerate(summaries):
                    assert summary == run_once(
                        factory, config, rate, replication
                    ), (name, rate, replication)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentSpec.create(["scc-2s", "scc-ks?k=2"]).run()

    def test_run_kwargs_override_spec_policy(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        spec = small_spec(store=str(tmp_path / "ignored.jsonl"))
        spec.run(store=str(store_path))
        assert store_path.exists()
        assert not (tmp_path / "ignored.jsonl").exists()


class TestNormalizeProtocols:
    def test_sequence_of_specs_labels_itself(self):
        specs = normalize_protocols(["scc-ks?k=3", "occ-bc"])
        assert list(specs) == ["SCC-3S", "OCC-BC"]
        assert specs["SCC-3S"] == parse_protocol_spec("scc-ks?k=3")

    def test_mapping_with_legacy_factories_keeps_name_identity(self):
        # A label no longer stands in for a factory's store identity: a
        # labelled class or lambda is refused, and the message names the
        # spec-string form and register_protocol as the way out.
        for roster in ({"SCC-2S": SCC2S}, {"x": lambda: SCC2S()}):
            with pytest.raises(ConfigurationError) as excinfo:
                normalize_protocols(roster)
            assert "'scc-ks?k=3'" in str(excinfo.value)
            assert "register_protocol" in str(excinfo.value)

    def test_mapping_label_wins_over_spec_label(self):
        specs = normalize_protocols({"mine": "scc-ks?k=3"})
        assert list(specs) == ["mine"]
        assert specs["mine"].family == "scc-ks"

    def test_bare_factory_without_label_rejected(self):
        # A bare protocol class has no store identity either.
        with pytest.raises(ConfigurationError) as excinfo:
            normalize_protocols([SCC2S])
        assert "'scc-ks?k=3'" in str(excinfo.value)
        assert "register_protocol" in str(excinfo.value)

    def test_one_spec_under_two_labels_rejected(self):
        # Equal fingerprint payloads would give two cells one fingerprint.
        for roster in (
            {"A": "scc-2s", "B": "scc-2s"},
            {"A": "scc-ks", "B": "scc-ks?k=2&replacement=lbfo"},
        ):
            with pytest.raises(ConfigurationError, match="'A' and 'B'"):
                normalize_protocols(roster)

    def test_uninterpretable_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            normalize_protocols({"x": 42})

    def test_empty_roster_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            normalize_protocols({})


class TestSpecStoreIdentity:
    """Satellite regression: parameterized variants never share cells."""

    def test_k2_and_k3_never_share_cached_cells(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        spec_k2 = ExperimentSpec.create(
            ["scc-ks?k=2"], arrival_rates=(80.0,), **SMOKE
        )
        spec_k3 = ExperimentSpec.create(
            ["scc-ks?k=3"], arrival_rates=(80.0,), **SMOKE
        )
        spec_k2.run(store=store_path)
        store = RunStore(store_path)
        assert len(store) == 1
        store.close()
        # The k=3 variant must compute fresh cells, not reuse k=2's.
        spec_k3.run(store=store_path)
        store = RunStore(store_path)
        assert len(store) == 2
        fingerprints = {record.fingerprint for record in store.records()}
        assert len(fingerprints) == 2
        store.close()

    def test_same_label_different_params_still_distinct(self, tmp_path):
        # The exact trap the registry closes: both variants labelled
        # identically (the pre-registry collision) still fingerprint by
        # their full spec, so the second run recomputes.
        store_path = str(tmp_path / "runs.jsonl")
        config = baseline_config(**SMOKE, arrival_rates=(80.0,))
        run_sweep({"SCC": "scc-ks?k=2"}, config, store=store_path)
        run_sweep({"SCC": "scc-ks?k=3"}, config, store=store_path)
        store = RunStore(store_path)
        records = list(store.records())
        assert len(records) == 2
        assert (
            records[0].protocol_spec["params"]["k"]
            != records[1].protocol_spec["params"]["k"]
        )
        store.close()

    def test_rerun_of_same_spec_reuses_every_cell(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        spec = small_spec(store=store_path)
        first = spec.run()
        before = RunStore(store_path)
        count = len(before)
        before.close()
        second = spec.run()
        after = RunStore(store_path)
        assert len(after) == count  # nothing recomputed
        after.close()
        for name in first:
            assert first[name].replications == second[name].replications

    def test_stored_records_carry_protocol_specs(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        small_spec(protocols=("scc-ks?k=3",)).run(store=store_path)
        store = RunStore(store_path)
        record = next(iter(store.records()))
        assert record.protocol == "SCC-3S"
        assert record.protocol_spec == {
            "family": "scc-ks",
            "params": {"k": 3, "replacement": "lbfo"},
        }
        store.close()


def test_normalize_protocols_accepts_a_bare_spec():
    # A single spec string (or spec/dict) is a one-protocol roster, not
    # a sequence to iterate character by character.
    for bare in ("scc-ks?k=3", parse_protocol_spec("scc-ks?k=3"),
                 {"family": "scc-ks", "params": {"k": 3}}):
        assert normalize_protocols(bare) == {
            "SCC-3S": parse_protocol_spec("scc-ks?k=3")
        }


def test_save_is_atomic(tmp_path, monkeypatch):
    # save() routes through the repo's atomic JSON writer, so a crash
    # mid-write can never leave a torn spec file behind.
    calls = []
    import repro.results.store as store_mod

    real = store_mod.write_json_atomic
    monkeypatch.setattr(
        store_mod, "write_json_atomic",
        lambda path, payload: calls.append(path) or real(path, payload),
    )
    path = tmp_path / "spec.json"
    spec = small_spec()
    spec.save(path)
    assert calls == [path]
    assert ExperimentSpec.load(path) == spec


def test_builder_constructors_refuse_mid_chain_calls():
    # Experiment.scenario()/baseline()/from_spec() start a NEW builder;
    # calling them on an instance would silently discard the chain's
    # accumulated state, so it must raise instead.  AttributeError keeps
    # hasattr()-style introspection working.
    chain = Experiment.baseline().protocols("scc-2s").rates(40, 160)
    for name in ("scenario", "baseline", "from_spec"):
        with pytest.raises(AttributeError, match="starts a new"):
            getattr(chain, name)
        assert not hasattr(chain, name)


def test_rates_step_rejects_swapped_bounds():
    with pytest.raises(ConfigurationError, match="start <= stop"):
        Experiment.baseline().rates(160, 40, step=20)


class TestStoreBackend:
    def test_round_trips_through_json(self):
        spec = small_spec(store="runs.data", store_backend="sqlite")
        rebuilt = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.store_backend == "sqlite"

    def test_defaults_to_none(self):
        spec = small_spec(store="runs.jsonl")
        assert spec.store_backend is None
        assert "store_backend" in spec.to_dict()

    def test_rejects_unknown_backends(self):
        with pytest.raises(ConfigurationError, match="store backend"):
            small_spec(store="runs.data", store_backend="parquet")

    def test_builder_sets_backend_with_store(self):
        spec = (
            Experiment.baseline()
            .protocols("occ")
            .store("runs.data", backend="sqlite")
            .build()
        )
        assert spec.store == "runs.data"
        assert spec.store_backend == "sqlite"
        assert Experiment.from_spec(spec).build() == spec

    def test_run_creates_the_requested_backend(self, tmp_path):
        path = str(tmp_path / "runs.data")
        spec = small_spec(
            replications=1,
            arrival_rates=(60.0,),
            protocols=("scc-2s",),
            store=path,
            store_backend="sqlite",
        )
        spec.run()
        store = open_store(path)
        assert store.backend == "sqlite"
        assert len(store) == 1
        store.close()

    def test_run_override_beats_the_spec_field(self, tmp_path):
        path = str(tmp_path / "runs.data")
        spec = small_spec(
            replications=1,
            arrival_rates=(60.0,),
            protocols=("scc-2s",),
            store=path,
        )
        spec.run(store_backend="sqlite")
        store = open_store(path)
        assert store.backend == "sqlite"
        store.close()
