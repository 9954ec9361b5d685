"""Ablation A4: the WAIT-X wait-control threshold (Haritsa's family).

WAIT-50 is the X = 0.5 member; lower thresholds wait more eagerly, X = 1
waits only for unanimous higher-priority conflict sets, and OCC-BC is the
no-wait reference.  The paper's observation to reproduce: some waiting
helps at moderate load, but aggressive waiting backfires as load grows.
"""

from repro.metrics.report import format_series_table


def test_ablation_wait_threshold(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("ablation-wait")
    results = benchmark.pedantic(
        lambda: spec.run(config=config, executor=bench_executor),
        rounds=1,
        iterations=1,
    )
    rates = list(config.arrival_rates)
    series = {name: sweep.missed_ratio() for name, sweep in results.items()}
    print()
    print(
        format_series_table(
            "arrival_rate",
            rates,
            series,
            title="A4: Missed Ratio (%) across WAIT-X thresholds",
        )
    )
    # Sanity: every variant commits everything and stays within bounds;
    # WAIT-50 does not trail the no-wait reference at the low-load anchor.
    low = 0
    assert series["WAIT-50"][low] <= series["OCC-BC"][low] + 1.0
    for name, values in series.items():
        assert all(0.0 <= v <= 100.0 for v in values), name
