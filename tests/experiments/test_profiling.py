"""Tests for ``capture_profile``, the harness behind ``repro run --profile``."""

import pytest


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
