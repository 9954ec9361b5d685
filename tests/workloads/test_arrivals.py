"""Arrival processes: empirical rates, burst structure, trace replay."""

import numpy as np
import pytest

from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.workloads import (
    DiurnalArrivals,
    DiurnalSpec,
    MMPPArrivals,
    MMPPSpec,
    PoissonArrivals,
    PoissonSpec,
    TraceArrivals,
    TraceSpec,
    arrival_spec_from_dict,
)


def draw(process, count, seed=11):
    rng = RandomStreams(seed)["arrivals"]
    return [process.next_arrival(rng) for _ in range(count)]


def empirical_rate(times):
    return (len(times) - 1) / (times[-1] - times[0])


class TestPoisson:
    def test_monotone_increasing(self):
        times = draw(PoissonArrivals(50.0), 500)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_empirical_rate(self):
        times = draw(PoissonArrivals(100.0), 20_000)
        assert empirical_rate(times) == pytest.approx(100.0, rel=0.05)

    def test_interarrival_cv_is_one(self):
        # Exponential inter-arrivals: coefficient of variation = 1.
        times = np.array(draw(PoissonArrivals(80.0), 20_000))
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)


class TestMMPP:
    def test_empirical_rate_matches_target(self):
        # Short cycles so the draw spans many on/off alternations.
        process = MMPPArrivals(
            100.0, burst_factor=8.0, on_fraction=0.25, mean_cycle=1.0
        )
        times = draw(process, 40_000)
        assert empirical_rate(times) == pytest.approx(100.0, rel=0.1)

    def test_burstier_than_poisson(self):
        # Rate modulation inflates inter-arrival variance: CV > 1.
        process = MMPPArrivals(
            100.0, burst_factor=10.0, on_fraction=0.2, mean_cycle=2.0
        )
        times = np.array(draw(process, 40_000))
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() > 1.2

    def test_monotone_increasing(self):
        times = draw(MMPPArrivals(50.0), 2_000)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals(10.0, burst_factor=1.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(10.0, on_fraction=1.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(10.0, mean_cycle=0.0)


class TestDiurnal:
    def test_empirical_rate_matches_mean(self):
        # Short period so the draw covers many full cycles; over whole
        # cycles the sinusoid integrates out and the mean rate holds.
        process = DiurnalArrivals(100.0, amplitude=0.7, period=2.0)
        times = draw(process, 40_000)
        assert empirical_rate(times) == pytest.approx(100.0, rel=0.1)

    def test_peak_vs_trough_intensity(self):
        # Count arrivals landing in the peak half vs the trough half of
        # each cycle; with amplitude 0.7 the peak half carries
        # (1 + 2*0.7/pi) / 2 ≈ 72% of the traffic.
        period = 2.0
        process = DiurnalArrivals(100.0, amplitude=0.7, period=period)
        times = np.array(draw(process, 40_000))
        phase = (times % period) / period
        peak_fraction = np.mean(phase < 0.5)  # sin > 0 half-cycle
        assert peak_fraction == pytest.approx(0.5 + 0.7 / np.pi, abs=0.03)

    def test_amplitude_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(10.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(10.0, amplitude=-0.1)


class TestTrace:
    def test_replays_timestamps_verbatim(self):
        trace = TraceArrivals([0.5, 1.0, 2.5], cycle=False)
        assert draw(trace, 3) == [0.5, 1.0, 2.5]

    def test_consumes_no_randomness(self):
        rng = RandomStreams(3)["arrivals"]
        before = rng.state
        TraceArrivals([1.0, 2.0]).next_arrival(rng)
        assert rng.state == before

    def test_cycle_wraps_and_stays_increasing(self):
        trace = TraceArrivals([1.0, 2.0, 3.0, 4.0], cycle=True)
        times = draw(trace, 10)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_exhaustion_raises_without_cycle(self):
        trace = TraceArrivals([1.0, 2.0], cycle=False)
        draw(trace, 2)
        with pytest.raises(ConfigurationError):
            draw(trace, 1)

    def test_cycled_empirical_rate_matches_trace_rate(self):
        trace = TraceArrivals([float(i + 1) for i in range(100)], cycle=True)
        times = draw(trace, 5_000)
        assert empirical_rate(times) == pytest.approx(trace.rate, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([1.0])
        with pytest.raises(ConfigurationError):
            TraceArrivals([2.0, 1.0])
        with pytest.raises(ConfigurationError):
            TraceArrivals([-1.0, 1.0])

    def test_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# recorded arrivals\n0.5\n1.5\n\n2.5  # spike\n")
        trace = TraceArrivals.from_file(str(path), cycle=False)
        assert draw(trace, 3) == [0.5, 1.5, 2.5]

    def test_rate_is_origin_independent(self):
        # An epoch-stamped recording (10 arrivals over ~9 s, starting at
        # t=50,000) must report its burst rate, not arrivals/epoch.
        zero_based = TraceArrivals([float(i) for i in range(10)])
        shifted = TraceArrivals([50_000.0 + i for i in range(10)])
        assert shifted.rate == pytest.approx(zero_based.rate)
        assert shifted.rate == pytest.approx(1.0)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ConfigurationError, match="not a timestamp"):
            TraceArrivals.from_file(str(path))


class TestSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            PoissonSpec(),
            MMPPSpec(burst_factor=6.0, on_fraction=0.3, mean_cycle=5.0),
            DiurnalSpec(amplitude=0.5, period=30.0),
            TraceSpec(times=(0.5, 1.0, 2.0)),
        ],
    )
    def test_dict_round_trip(self, spec):
        assert arrival_spec_from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "spec", [PoissonSpec(), MMPPSpec(), DiurnalSpec(), TraceSpec(times=(0.5, 2.0))]
    )
    def test_arrival_times_equal_next_arrival_bit_for_bit(self, spec):
        # Mid-stream too: a batch starts from the clock next_arrival left,
        # and leaves it at its last arrival.
        scalar, batched = spec.build(70.0), spec.build(70.0)
        rng, batched_rng = RandomStreams(11)["arrivals"], RandomStreams(11)["arrivals"]
        expected = [scalar.next_arrival(rng) for _ in range(41)]
        got = [batched.next_arrival(batched_rng) for _ in range(3)]
        got += batched.arrival_times(batched_rng, 37)
        got += batched.arrival_times(batched_rng, 0)
        got.append(batched.next_arrival(batched_rng))
        assert got == expected

    def test_build_targets_requested_rate(self):
        for spec in (PoissonSpec(), MMPPSpec(), DiurnalSpec()):
            assert spec.build(70.0).rate == pytest.approx(70.0)

    def test_trace_build_rescales_to_rate(self):
        spec = TraceSpec(times=tuple(float(i + 1) for i in range(50)))
        process = spec.build(100.0)
        assert process.rate == pytest.approx(100.0)
        times = draw(process, 2_000)
        assert empirical_rate(times) == pytest.approx(100.0, rel=0.05)

    def test_trace_build_shifts_epoch_origin_to_zero(self):
        # Same burst shape recorded at epoch offset: the replay must not
        # open with hours of dead air before the first arrival.
        spec = TraceSpec(times=tuple(90_000.0 + i for i in range(20)))
        times = draw(spec.build(10.0), 20)
        assert times[0] == pytest.approx(0.0)
        assert empirical_rate(times) == pytest.approx(10.0, rel=0.05)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arrival kind"):
            arrival_spec_from_dict({"kind": "fractal"})

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="mmpp"):
            arrival_spec_from_dict({"kind": "mmpp", "warp": 9})
