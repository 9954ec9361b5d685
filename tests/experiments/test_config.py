"""Unit tests for experiment configuration."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    ExperimentConfig,
    baseline_class,
    baseline_config,
    two_class_config,
)


def test_baseline_matches_paper_parameters():
    config = baseline_config()
    assert config.num_pages == 1000
    cls = config.classes[0]
    assert cls.num_steps == 16
    assert cls.write_probability == 0.25
    assert cls.slack_factor == 2.0
    assert config.num_transactions == 4000
    assert config.confidence_level == 0.90
    assert 200 in config.arrival_rates or max(config.arrival_rates) == 200


def test_baseline_class_value_parameters():
    cls = baseline_class(alpha_degrees=45.0, value=1.0)
    assert cls.penalty_gradient == pytest.approx(1.0)


def test_two_class_mix_matches_one_class_mean():
    config = two_class_config()
    one, two = config.classes
    assert one.weight == pytest.approx(0.1)
    assert two.weight == pytest.approx(0.9)
    # Mix-weighted mean value and gradient equal the one-class setup.
    mean_value = 0.1 * one.value + 0.9 * two.value
    mean_gradient = 0.1 * one.penalty_gradient + 0.9 * two.penalty_gradient
    assert mean_value == pytest.approx(1.0)
    assert mean_gradient == pytest.approx(1.0)
    # Class 1 is long/tight/valuable/steep relative to class 2.
    assert one.num_steps > two.num_steps
    assert one.slack_factor < two.slack_factor
    assert one.value > two.value
    assert one.penalty_gradient > two.penalty_gradient


def test_scaled_copy():
    config = baseline_config()
    small = config.scaled(
        num_transactions=100, replications=1, arrival_rates=[50], warmup_commits=10
    )
    assert small.num_transactions == 100
    assert small.replications == 1
    assert small.arrival_rates == (50,)
    assert config.num_transactions == 4000  # original untouched


def test_step_duration():
    config = baseline_config()
    assert config.step_duration == pytest.approx(config.cpu_time + config.io_time)


def test_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(classes=())
    with pytest.raises(ConfigurationError):
        baseline_config(num_transactions=100, warmup_commits=100)
    with pytest.raises(ConfigurationError):
        baseline_config(replications=0)
    with pytest.raises(ConfigurationError):
        baseline_config(arrival_rates=())
    for servers in (0, -1, True, 2.0):
        with pytest.raises(ConfigurationError, match="num_servers"):
            baseline_config(num_servers=servers)
