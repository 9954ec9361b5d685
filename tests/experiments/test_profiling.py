"""Tests for execution-time profiling (§3.2 statistics collection)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.profiling import OnlineProfiler, profile_classes
from repro.values.distributions import EmpiricalExecution
from tests.conftest import make_class


class TestOnlineProfiler:
    def test_observe_and_fit(self):
        profiler = OnlineProfiler()
        for sample in (1.0, 2.0, 3.0):
            profiler.observe("a", sample)
        assert profiler.sample_count("a") == 3
        dist = profiler.distribution("a")
        assert isinstance(dist, EmpiricalExecution)
        assert dist.mean() == pytest.approx(2.0)

    def test_classes_are_isolated(self):
        profiler = OnlineProfiler()
        profiler.observe("a", 1.0)
        profiler.observe("b", 9.0)
        assert profiler.distribution("a").mean() == pytest.approx(1.0)
        assert profiler.distribution("b").mean() == pytest.approx(9.0)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineProfiler().distribution("ghost")

    def test_non_positive_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineProfiler().observe("a", 0.0)


class TestProfileClasses:
    def test_deterministic_class_profiles_to_its_runtime(self):
        cls = make_class(name="fixed", num_steps=8)
        [profiled] = profile_classes(
            [cls], num_pages=64, step_duration=0.01, transactions=50
        )
        assert profiled.execution is not None
        # Serial, uncontended: execution time is exactly 8 steps x 10 ms.
        assert profiled.execution.mean() == pytest.approx(0.08, rel=1e-6)
        assert profiled.execution.survival(0.079) == 1.0
        assert profiled.execution.survival(0.081) == 0.0

    def test_mix_profiles_each_class(self):
        short = make_class(name="short", num_steps=4, weight=0.5)
        long = make_class(name="long", num_steps=12, weight=0.5)
        profiled = profile_classes(
            [short, long], num_pages=64, step_duration=0.01, transactions=80
        )
        by_name = {cls.name: cls for cls in profiled}
        assert by_name["short"].execution.mean() == pytest.approx(0.04)
        assert by_name["long"].execution.mean() == pytest.approx(0.12)

    def test_profiled_classes_feed_scc_dc(self):
        from repro.core.scc_dc import SCCDC
        from repro.engine.rng import RandomStreams
        from repro.system.model import RTDBSystem
        from repro.workloads.arrivals import PoissonArrivals
        from repro.workloads.generator import TransactionGenerator

        [profiled] = profile_classes(
            [make_class(name="p", num_steps=6)],
            num_pages=64,
            step_duration=0.01,
            transactions=30,
        )
        generator = TransactionGenerator(
            classes=[profiled],
            num_pages=64,
            step_duration=0.01,
            streams=RandomStreams(3),
            arrivals=PoissonArrivals(40.0),
        )
        system = RTDBSystem(protocol=SCCDC(period=0.02), num_pages=64)
        system.load_workload(generator.generate(60))
        system.run()
        assert system.committed_count == 60

    def test_too_small_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_classes(
                [make_class(), make_class(name="b")],
                num_pages=64,
                step_duration=0.01,
                transactions=1,
            )


class TestCaptureProfile:
    def test_returns_result_and_report(self):
        from repro.experiments.profiling import capture_profile

        result, report = capture_profile(lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert "function calls" in report

    def test_propagates_exceptions(self):
        from repro.experiments.profiling import capture_profile

        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError):
            capture_profile(boom)

    def test_dump_to_writes_loadable_pstats(self, tmp_path):
        import pstats

        from repro.experiments.profiling import capture_profile

        dump = tmp_path / "profile.pstats"
        result, report = capture_profile(
            lambda: sum(range(1000)), dump_to=dump
        )
        assert result == sum(range(1000))
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0
