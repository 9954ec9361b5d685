"""Scenario registry: catalogue, serialization, end-to-end sweeps."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import baseline_config
from repro.experiments.runner import run_sweep
from repro.experiments.spec import Experiment, ExperimentSpec
from repro.workloads.scenarios import (
    Scenario,
    all_scenarios,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_from_dict,
)

BUILTIN = (
    "bursty-telecom",
    "diurnal-oltp",
    "flash-sale-hotspot",
    "paper-baseline",
    "paper-two-class",
    "trace-replay",
)


@pytest.fixture
def on_lookup():
    """Registers a scenario built on first lookup, as the built-in ones
    that use an extension kind are; returns the list of builds."""
    from repro.workloads import scenarios

    names, built = [], []

    def register(name: str) -> list:
        def build() -> Scenario:
            built.append(Scenario(name=name, description="on lookup"))
            return built[-1]

        names.append(name)
        scenarios._ON_LOOKUP[name] = build
        return built

    yield register
    for name in names:
        scenarios._ON_LOOKUP.pop(name, None)
        scenarios._REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtin_catalogue_is_registered(self):
        for name in BUILTIN:
            assert name in available_scenarios()

    def test_get_unknown_name_lists_registry(self):
        with pytest.raises(ConfigurationError, match="paper-baseline"):
            get_scenario("black-friday")

    def test_register_rejects_duplicates_without_replace(self):
        scenario = get_scenario("paper-baseline")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(scenario)
        # replace=True is idempotent for the same object.
        assert register_scenario(scenario, replace=True) is scenario

    def test_scenario_built_on_lookup_is_registered_before_it_is_built(
        self, on_lookup
    ):
        built = on_lookup("built-on-lookup")
        assert "built-on-lookup" in available_scenarios()
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(Scenario(name="built-on-lookup", description="x"))
        assert built == []
        first = get_scenario("built-on-lookup")
        assert get_scenario("built-on-lookup") is first
        assert built == [first]

    def test_replacing_a_scenario_before_its_first_lookup(self, on_lookup):
        built = on_lookup("built-on-lookup")
        replacement = Scenario(name="built-on-lookup", description="mine")
        assert register_scenario(replacement, replace=True) is replacement
        assert get_scenario("built-on-lookup") is replacement
        assert [s.name for s in all_scenarios()].count("built-on-lookup") == 1
        assert built == []

    def test_all_scenarios_sorted_by_name(self):
        names = [s.name for s in all_scenarios()]
        assert names == sorted(names)

    def test_every_scenario_documents_what_it_stresses(self):
        for scenario in all_scenarios():
            assert scenario.description
            assert scenario.stresses


class TestSerialization:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_dict_round_trip(self, name):
        scenario = get_scenario(name)
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert rebuilt == scenario

    def test_json_round_trip(self):
        import json

        scenario = get_scenario("flash-sale-hotspot")
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert scenario_from_dict(payload) == scenario

    def test_minimal_dict_defaults_to_baseline_axes(self):
        scenario = scenario_from_dict(
            {"name": "ad-hoc", "description": "just a test"}
        )
        assert scenario.arrivals.kind == "poisson"
        assert scenario.access.kind == "uniform"
        assert scenario.deadlines.kind == "slack"

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigurationError, match="description"):
            scenario_from_dict({"name": "nameless"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            scenario_from_dict(
                {"name": "x", "description": "y", "turbo": True}
            )

    def test_class_with_an_execution_key_rejected(self):
        # A class's execution time is its step count times the per-step
        # service time; a class dict cannot carry a distribution, so the
        # key is refused when the spec loads rather than failing in a cell.
        payload = get_scenario("paper-two-class").to_dict()
        payload["classes"][0]["execution"] = "not-a-distribution"
        with pytest.raises(ConfigurationError, match="bad class parameters"):
            scenario_from_dict(payload)
        spec = {"schema": 1, "protocols": ["scc-vw"], "scenario_def": payload}
        with pytest.raises(ConfigurationError, match="bad class parameters"):
            ExperimentSpec.from_dict(spec)


class TestToConfig:
    def test_scenario_config_carries_workload_and_classes(self):
        scenario = get_scenario("flash-sale-hotspot")
        config = scenario.to_config(num_transactions=300, replications=1)
        assert config.workload == scenario.workload_spec()
        assert config.classes == scenario.classes
        assert config.num_transactions == 300

    def test_paper_baseline_config_matches_baseline_config(self):
        # Same classes, pages, rates — only the (equivalent) workload
        # spec is attached.  run_once treats both paths identically.
        from repro._record import replace

        scenario_config = get_scenario("paper-baseline").to_config()
        assert replace(scenario_config, workload=None) == baseline_config()

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="", description="no name")
        with pytest.raises(ConfigurationError):
            Scenario(name="x", description="y", classes=())


class TestEndToEnd:
    """Every registered scenario sweeps through BOTH executors."""

    @pytest.mark.parametrize("name", available_scenarios())
    @pytest.mark.parametrize("executor", ["serial", "distributed"])
    def test_scenario_runs_through_executor(self, name, executor):
        results = Experiment.scenario(name).protocols("scc-2s").run(
            arrival_rates=[110.0],
            executor=executor,
            workers=2 if executor == "distributed" else None,
            num_transactions=100,
            warmup_commits=10,
            replications=1,
            check_serializability=True,  # histories stay serializable
        )
        summary = results["SCC-2S"].replications[0][0]
        assert summary.committed > 0
        assert 0.0 <= summary.missed_ratio <= 100.0

    def test_paper_baseline_bit_identical_to_default_path(self):
        """The acceptance criterion: paper-baseline == the seed path."""
        kwargs = dict(
            num_transactions=150,
            warmup_commits=15,
            replications=2,
            check_serializability=False,
        )
        legacy = run_sweep(
            {"SCC-2S": "scc-2s"},
            baseline_config(**kwargs),
            arrival_rates=[70.0, 150.0],
        )
        scenario = run_sweep(
            {"SCC-2S": "scc-2s"},
            get_scenario("paper-baseline").to_config(**kwargs),
            arrival_rates=[70.0, 150.0],
        )
        # RunSummary equality covers every metric field.
        assert legacy["SCC-2S"].replications == scenario["SCC-2S"].replications

    def test_serial_and_process_agree_on_a_scenario(self):
        spec = Experiment.scenario("bursty-telecom").protocols("scc-2s").build()
        kwargs = dict(
            arrival_rates=[120.0],
            num_transactions=120,
            warmup_commits=12,
            replications=2,
            check_serializability=False,
        )
        serial = spec.run(executor="serial", **kwargs)
        parallel = spec.run(workers=2, **kwargs)
        assert (
            serial["SCC-2S"].replications == parallel["SCC-2S"].replications
        )
