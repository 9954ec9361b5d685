"""Unit tests for confidence intervals."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.confidence import mean_confidence_interval, t_quantile

#: How closely t_quantile must match scipy's Student-t quantile
#: (relative), fixed before the comparison was first run.
QUANTILE_REL_TOL = 1e-9


def test_single_sample_degenerate():
    ci = mean_confidence_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0
    assert ci.n == 1


def test_constant_samples_zero_width():
    ci = mean_confidence_interval([3.0, 3.0, 3.0])
    assert ci.mean == 3.0
    assert ci.half_width == 0.0


def test_interval_contains_mean_and_bounds():
    ci = mean_confidence_interval([1.0, 2.0, 3.0], level=0.90)
    assert ci.mean == pytest.approx(2.0)
    assert ci.low < 2.0 < ci.high
    assert ci.contains(2.0)
    assert not ci.contains(ci.high + 0.001)


def test_known_t_value():
    # n=3, 90% -> t(0.95, df=2) = 2.9200; s = 1.0; sem = 1/sqrt(3).
    ci = mean_confidence_interval([1.0, 2.0, 3.0], level=0.90)
    expected = 2.9200 * (1.0 / np.sqrt(3.0))
    assert ci.half_width == pytest.approx(expected, rel=1e-3)


def test_higher_level_wider_interval():
    samples = [1.0, 2.0, 4.0, 8.0]
    narrow = mean_confidence_interval(samples, level=0.80)
    wide = mean_confidence_interval(samples, level=0.99)
    assert wide.half_width > narrow.half_width


def test_coverage_monte_carlo():
    rng = np.random.default_rng(42)
    covered = 0
    trials = 400
    for _ in range(trials):
        samples = rng.normal(10.0, 2.0, size=8)
        if mean_confidence_interval(list(samples), level=0.90).contains(10.0):
            covered += 1
    assert covered / trials == pytest.approx(0.90, abs=0.05)


def test_str_rendering():
    text = str(mean_confidence_interval([1.0, 2.0], level=0.90))
    assert "±" in text
    assert "n=2" in text


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigurationError):
        mean_confidence_interval([])
    with pytest.raises(ConfigurationError):
        mean_confidence_interval([1.0], level=1.5)


def test_t_quantile_matches_scipy():
    # scipy is a test oracle only; the package itself never imports it.
    stats = pytest.importorskip("scipy.stats")
    for df in range(1, 201):
        for level in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99):
            p = 0.5 + level / 2.0
            expected = float(stats.t.ppf(p, df))
            assert t_quantile(p, df) == pytest.approx(
                expected, rel=QUANTILE_REL_TOL
            ), (df, level)


def test_interval_matches_numpy_and_scipy():
    # The interval the package computed with numpy moments and scipy's
    # quantile, now from math.fsum, statistics and t_quantile.
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 10, 30, 101):
        samples = list(rng.normal(10.0, 2.0, size=n))
        for level in (0.5, 0.9, 0.95, 0.99):
            ci = mean_confidence_interval(samples, level=level)
            sem = np.std(samples, ddof=1) / np.sqrt(n)
            expected = float(stats.t.ppf(0.5 + level / 2.0, n - 1) * sem)
            assert ci.n == n
            assert ci.mean == pytest.approx(
                float(np.mean(samples)), rel=QUANTILE_REL_TOL
            )
            assert ci.half_width == pytest.approx(
                expected, rel=QUANTILE_REL_TOL
            ), (n, level)


def test_t_quantile_edges():
    assert t_quantile(0.5, 3) == 0.0
    # df = 1 is the Cauchy distribution: tan(pi * (p - 1/2)).
    assert t_quantile(0.999, 1) == pytest.approx(
        np.tan(np.pi * 0.499), rel=QUANTILE_REL_TOL
    )
    for p, df in ((0.4, 3), (1.0, 3), (0.9, 0)):
        with pytest.raises(ConfigurationError):
            t_quantile(p, df)
