"""Figure 13(b): Average Tardiness vs arrival rate, baseline model.

Paper claims: SCC-2S's late transactions miss by considerably less than
OCC-BC's at all loads; 2PL-PA's tardiness explodes at high load.
"""

from repro.metrics.report import format_series_table


def test_fig13b_average_tardiness(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("fig13")
    results = benchmark.pedantic(
        lambda: spec.run(config=config, executor=bench_executor),
        rounds=1, iterations=1
    )
    rates = config.arrival_rates
    series = {name: sweep.avg_tardiness() for name, sweep in results.items()}
    print()
    print(
        format_series_table(
            "arrival_rate",
            list(rates),
            series,
            title="Figure 13(b): Average Tardiness (s), baseline model",
        )
    )
    high = len(rates) - 1
    # SCC-2S beats OCC-BC on tardiness at high load (the paper's claim is
    # "under all system loads"; at near-zero-miss low loads the estimate is
    # too noisy at bench scale to compare meaningfully).
    assert series["SCC-2S"][high] <= series["OCC-BC"][high]
    # 2PL-PA has the worst tardiness at the high-load point.
    assert series["2PL-PA"][high] >= series["SCC-2S"][high]
