"""The paper's figures and ablations as committed spec files (``specs/``).

Each file is the one definition of its roster and scale; these tests pin
the rosters, check that the figure files describe the paper's configs
(same cell fingerprints as ``baseline_config``/``two_class_config``), and
run each file at a reduced scale.
"""

import pytest

from repro.experiments.config import baseline_config, two_class_config
from repro.experiments.spec import ExperimentSpec
from repro.results.fingerprint import config_fingerprint
from tests.conftest import SPECS_DIR

TINY = dict(
    num_transactions=150,
    warmup_commits=10,
    replications=1,
)


def load(name):
    return ExperimentSpec.load(SPECS_DIR / f"{name}.json")


def run(name, **overrides):
    spec = load(name)
    return spec.run(config=spec.to_config(**{**TINY, **overrides}))


def test_fig13_protocol_set():
    assert list(load("fig13").protocol_mapping()) == [
        "SCC-2S",
        "OCC-BC",
        "WAIT-50",
        "2PL-PA",
    ]


def test_fig14_protocol_set():
    for name in ("fig14a-fig15", "fig14b"):
        assert list(load(name).protocol_mapping()) == [
            "SCC-VW",
            "SCC-2S",
            "OCC-BC",
            "WAIT-50",
        ], name


@pytest.mark.parametrize(
    "name, paper_config",
    [
        ("fig13", baseline_config),
        ("fig14a-fig15", baseline_config),
        ("fig14b", two_class_config),
    ],
)
def test_figure_specs_are_the_paper_configs(name, paper_config):
    # Same cells (and so the same run-store entries) as the paper's
    # config at the paper's scale: 4000 transactions, 200 warmup
    # commits, 3 replications, 10-200 tps.
    config = load(name).to_config()
    paper = paper_config()
    assert config_fingerprint(config) == config_fingerprint(paper)
    assert config.arrival_rates == paper.arrival_rates
    assert config.replications == paper.replications == 3
    # ...and at a reduced scale too, where the CLI's flags land.
    scale = dict(num_transactions=120, warmup_commits=12)
    assert config_fingerprint(load(name).to_config(**scale)) == (
        config_fingerprint(paper_config(**scale))
    )


def test_fig13_spec_reduced():
    results = run("fig13", arrival_rates=(60.0, 120.0))
    assert list(results) == list(load("fig13").protocol_mapping())
    for sweep in results.values():
        missed = sweep.missed_ratio()
        assert len(missed) == 2
        assert all(0.0 <= m <= 100.0 for m in missed)
        tardiness = sweep.avg_tardiness()
        assert all(t >= 0.0 for t in tardiness)


def test_fig14a_spec_reduced():
    results = run("fig14a-fig15", arrival_rates=(80.0,))
    for sweep in results.values():
        values = sweep.system_value()
        assert len(values) == 1
        assert values[0] <= 100.0


def test_fig14b_spec_two_classes():
    results = run("fig14b", arrival_rates=(60.0,))
    assert "SCC-VW" in results
    for sweep in results.values():
        assert len(sweep.system_value()) == 1


def test_ablation_k_monotone_protocol_set():
    specs = load("ablation-k").protocol_mapping()
    assert list(specs) == ["SCC-1S", "SCC-2S", "SCC-3S", "SCC-CB (k=inf)"]
    assert [spec.params["k"] for spec in specs.values()] == [1, 2, 3, None]
    # Specs build fresh instances.
    assert specs["SCC-2S"]() is not specs["SCC-2S"]()


def test_ablation_replacement_runs():
    results = run("ablation-replacement", arrival_rates=(100.0,))
    assert set(results) == {
        "SCC-3S",
        "SCC-3S [replacement=deadline-aware]",
        "SCC-3S [replacement=value-aware]",
    }


def test_ablation_wait_threshold_runs():
    results = run("ablation-wait", arrival_rates=(100.0,))
    assert list(results) == ["OCC-BC", "WAIT-25", "WAIT-50", "WAIT-100"]


def test_ablation_resources_runs():
    # The resource model is config data: the spec fixes the roster and
    # its 70 tps rate, and num_servers picks the pool per sweep.
    scarce = run("ablation-resources", num_servers=2)
    infinite = run("ablation-resources")
    assert list(scarce) == list(infinite) == ["SCC-2S", "OCC-BC", "2PL-PA"]
    assert scarce["SCC-2S"].arrival_rates == (70.0,)
    assert all(
        scarce[name].replications != infinite[name].replications
        for name in scarce
    )
