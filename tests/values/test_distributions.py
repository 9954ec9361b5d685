"""Unit tests for execution-time distributions (paper Definitions 3-4)."""

import pytest

from repro.errors import ConfigurationError
from repro.values.distributions import (
    DeterministicExecution,
    EmpiricalExecution,
    ExponentialExecution,
    NormalExecution,
    UniformExecution,
)


class TestDeterministic:
    def test_survival_step(self):
        dist = DeterministicExecution(2.0)
        assert dist.survival(1.9) == 1.0
        assert dist.survival(2.0) == 0.0
        assert dist.mean() == 2.0

    def test_conditional_finish(self):
        dist = DeterministicExecution(2.0)
        # Already ran 1s; finishes by total time 2.0 with certainty.
        assert dist.conditional_finish_by(2.0, elapsed=1.0) == 1.0
        assert dist.conditional_finish_by(1.5, elapsed=1.0) == 0.0

    def test_conditional_after_support_exhausted(self):
        dist = DeterministicExecution(2.0)
        # Survived past the deterministic duration: treated as immediate.
        assert dist.conditional_finish_by(3.0, elapsed=2.5) == 1.0

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            DeterministicExecution(0.0)


class TestUniform:
    def test_survival_shape(self):
        dist = UniformExecution(1.0, 3.0)
        assert dist.survival(0.5) == 1.0
        assert dist.survival(2.0) == pytest.approx(0.5)
        assert dist.survival(3.0) == 0.0
        assert dist.mean() == pytest.approx(2.0)

    def test_conditional_is_renormalized(self):
        dist = UniformExecution(1.0, 3.0)
        # Given survival past 2.0, finishing by 2.5 has probability 0.5.
        assert dist.conditional_finish_by(2.5, elapsed=2.0) == pytest.approx(0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformExecution(3.0, 1.0)


class TestExponential:
    def test_memoryless(self):
        dist = ExponentialExecution(mean=2.0)
        fresh = dist.conditional_finish_by(1.0, elapsed=0.0)
        conditioned = dist.conditional_finish_by(4.0, elapsed=3.0)
        assert fresh == pytest.approx(conditioned)

    def test_mean(self):
        assert ExponentialExecution(2.0).mean() == 2.0

    def test_survival_decreasing(self):
        dist = ExponentialExecution(1.0)
        values = [dist.survival(x) for x in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


class TestNormal:
    def test_truncation_keeps_mass_positive(self):
        dist = NormalExecution(mu=1.0, sigma=2.0)
        assert dist.survival(0.0) == pytest.approx(1.0)
        assert 0.0 < dist.survival(1.0) < 1.0
        assert dist.mean() > 1.0  # truncation at 0 shifts the mean up

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            NormalExecution(mu=0.0, sigma=1.0)

    def test_matches_scipy_truncnorm(self):
        # scipy is not imported by the library at start-up; it serves only
        # as an independent reference for the closed form.
        stats = pytest.importorskip("scipy.stats")
        for mu in (0.05, 0.5, 1.0, 2.0, 5.0, 37.0):
            for sigma in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
                dist = NormalExecution(mu=mu, sigma=sigma)
                ref = stats.truncnorm(
                    a=-mu / sigma, b=float("inf"), loc=mu, scale=sigma
                )
                assert dist.mean() == pytest.approx(float(ref.mean()), rel=1e-12)
                for k in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                    x = mu + k * sigma
                    if x <= 0:
                        continue
                    assert dist.survival(x) == pytest.approx(
                        float(ref.sf(x)), rel=1e-12
                    )


class TestEmpirical:
    def test_survival_from_samples(self):
        dist = EmpiricalExecution([1.0, 2.0, 3.0, 4.0])
        assert dist.survival(0.5) == 1.0
        assert dist.survival(2.0) == pytest.approx(0.5)
        assert dist.survival(4.0) == 0.0
        assert dist.mean() == pytest.approx(2.5)

    def test_observe_updates(self):
        dist = EmpiricalExecution([1.0])
        dist.observe(3.0)
        assert dist.mean() == pytest.approx(2.0)
        assert dist.survival(2.0) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalExecution([])

    def test_non_positive_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalExecution([1.0]).observe(0.0)


class TestHorizon:
    def test_horizon_reaches_target_probability(self):
        dist = ExponentialExecution(mean=1.0)
        horizon = dist.horizon(elapsed=0.0, epsilon=0.01)
        assert dist.conditional_finish_by(horizon, 0.0) >= 0.99

    def test_horizon_at_least_elapsed(self):
        dist = DeterministicExecution(2.0)
        assert dist.horizon(elapsed=1.0) >= 1.0

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialExecution(1.0).horizon(0.0, epsilon=0.0)
