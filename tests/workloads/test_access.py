"""Access patterns: skew histograms vs closed form, distinctness, regions."""

import math

import numpy as np
import pytest

from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.txn.spec import Step
from repro.workloads import (
    HotspotAccess,
    PartitionedAccess,
    UniformAccess,
    ZipfianAccess,
    access_pattern_from_dict,
)

NUM_PAGES = 200


def page_histogram(pattern, draws=30_000, count=1, num_pages=NUM_PAGES, seed=13):
    """Empirical selection frequencies from single-page draws.

    ``count=1`` avoids the without-replacement distortion so frequencies
    are directly comparable to the closed-form probabilities.
    """
    rng = RandomStreams(seed)["pages"]
    reads = [False] * count
    counts = np.zeros(num_pages)
    for _ in range(draws):
        for page in pattern.select_pages(rng, num_pages, reads):
            counts[page] += 1
    return counts / counts.sum()


def sample(pattern, num_steps=16, write_probability=0.25, seed=13, txns=200):
    """Programs drawn as the generator draws them: coin-flips, then pages."""
    streams = RandomStreams(seed)
    programs = []
    for _ in range(txns):
        flags = [u < write_probability for u in streams["writes"].random(num_steps)]
        pages = pattern.select_pages(streams["pages"], NUM_PAGES, flags)
        programs.append([Step(page, flag) for page, flag in zip(pages, flags)])
    return programs


@pytest.mark.parametrize(
    "pattern",
    [
        UniformAccess(),
        ZipfianAccess(theta=0.9),
        HotspotAccess(hot_page_fraction=0.1, hot_access_fraction=0.8),
        PartitionedAccess(write_region_fraction=0.25),
    ],
)
class TestEveryPattern:
    def test_pages_distinct_and_in_range(self, pattern):
        for steps in sample(pattern):
            pages = [step.page for step in steps]
            assert len(set(pages)) == len(pages)
            assert all(0 <= p < NUM_PAGES for p in pages)

    def test_write_probability_respected(self, pattern):
        programs = sample(pattern, txns=500)
        writes = sum(sum(1 for s in steps if s.is_write) for steps in programs)
        total = sum(len(steps) for steps in programs)
        assert writes / total == pytest.approx(0.25, abs=0.03)

    def test_dict_round_trip(self, pattern):
        assert access_pattern_from_dict(pattern.to_dict()) == pattern

    def test_rejects_oversized_transactions(self, pattern):
        with pytest.raises(ConfigurationError):
            pattern.validate(num_pages=NUM_PAGES, num_steps=NUM_PAGES + 1)


class TestUniform:
    def test_frequencies_are_flat(self):
        freqs = page_histogram(UniformAccess(), count=4)
        assert freqs.max() / freqs.min() < 2.0
        assert freqs.mean() == pytest.approx(1.0 / NUM_PAGES)


class TestZipfian:
    def test_frequencies_match_closed_form(self):
        pattern = ZipfianAccess(theta=0.9)
        expected = pattern.probabilities(NUM_PAGES)
        freqs = page_histogram(pattern, draws=60_000)
        # Head pages carry enough mass for tight per-page comparison.
        for page in range(5):
            assert freqs[page] == pytest.approx(expected[page], rel=0.1)
        # Aggregate head/tail split matches closed form too.
        head = sum(expected[:20])
        assert freqs[:20].sum() == pytest.approx(head, rel=0.05)

    def test_theta_zero_degenerates_to_uniform(self):
        probs = ZipfianAccess(theta=0.0).probabilities(NUM_PAGES)
        assert np.allclose(probs, 1.0 / NUM_PAGES)

    def test_higher_theta_is_more_skewed(self):
        mild = ZipfianAccess(theta=0.5).probabilities(NUM_PAGES)
        steep = ZipfianAccess(theta=1.2).probabilities(NUM_PAGES)
        assert steep[0] > mild[0]

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfianAccess(theta=-0.1)

    @pytest.mark.parametrize("theta, num_pages", [(0.8, 1000), (0.95, 200), (1.2, 37)])
    def test_weights_do_not_depend_on_the_host_cpu(self, theta, num_pages):
        """The vector is libm ``pow`` summed in numpy's pairwise order.

        numpy's SIMD ``power`` (used where the CPU has AVX-512) differs
        from libm ``pow`` in the last bit of some weights, so a vector
        built with it depends on the host.  A last-bit difference moves a
        sampled page only when a uniform draw lands within an ulp of a
        cdf boundary, which is why no workload was seen to change, but
        the workload must not rest on that.  The reference here is pure
        Python: ``math.pow`` per rank and its own pairwise sum, whose
        order numpy's ``ndarray.sum`` confirms.
        """

        def pairwise(values):
            if len(values) < 8:
                total = 0.0
                for value in values:
                    total += value
                return total
            if len(values) <= 128:
                lanes = [values[k::8] for k in range(8)]
                whole = len(values) // 8
                acc = []
                for lane in lanes:
                    total = lane[0]
                    for value in lane[1:whole]:
                        total += value
                    acc.append(total)
                total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
                    (acc[4] + acc[5]) + (acc[6] + acc[7])
                )
                for value in values[8 * whole:]:
                    total += value
                return total
            half = len(values) // 2 // 8 * 8
            return pairwise(values[:half]) + pairwise(values[half:])

        weights = [math.pow(rank, -theta) for rank in range(1, num_pages + 1)]
        total = pairwise(weights)
        assert total == float(np.array(weights).sum())
        expected = tuple(weight / total for weight in weights)
        assert ZipfianAccess(theta=theta).probabilities(num_pages) == expected


class TestHotspot:
    def test_hot_set_traffic_share_matches_closed_form(self):
        pattern = HotspotAccess(hot_page_fraction=0.1, hot_access_fraction=0.8)
        hot = pattern.hot_pages(NUM_PAGES)
        assert hot == 20
        freqs = page_histogram(pattern, draws=40_000)
        assert freqs[:hot].sum() == pytest.approx(0.8, abs=0.02)
        # Within each region the distribution is flat.
        assert freqs[:hot].max() / freqs[:hot].min() < 1.5

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            HotspotAccess(hot_page_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotspotAccess(hot_access_fraction=1.0)


class TestPartitioned:
    def test_writes_and_reads_land_in_their_regions(self):
        pattern = PartitionedAccess(write_region_fraction=0.25)
        split = pattern.split(NUM_PAGES)
        for steps in sample(pattern, write_probability=0.5):
            for step in steps:
                if step.is_write:
                    assert step.page < split
                else:
                    assert step.page >= split

    def test_region_capacity_validated(self):
        pattern = PartitionedAccess(write_region_fraction=0.1)
        with pytest.raises(ConfigurationError, match="regions"):
            # 10% of 100 pages = 10-page write region < 16 steps.
            pattern.validate(num_pages=100, num_steps=16)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionedAccess(write_region_fraction=0.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown access kind"):
        access_pattern_from_dict({"kind": "quantum"})
