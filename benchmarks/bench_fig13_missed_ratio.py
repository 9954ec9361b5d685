"""Figure 13(a): Missed Ratio vs arrival rate, baseline model.

Paper claims regenerated here: SCC-2S has the lowest Missed Ratio at every
load; 2PL-PA degrades first and hardest; WAIT-50 is competitive at low
load but falls behind OCC-BC at high load.
"""

from repro.metrics.report import format_series_table


def test_fig13a_missed_ratio(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("fig13")
    results = benchmark.pedantic(
        lambda: spec.run(config=config, executor=bench_executor),
        rounds=1, iterations=1
    )
    rates = config.arrival_rates
    series = {name: sweep.missed_ratio() for name, sweep in results.items()}
    print()
    print(
        format_series_table(
            "arrival_rate",
            list(rates),
            series,
            title="Figure 13(a): Missed Ratio (%), baseline model",
        )
    )
    high = len(rates) - 1
    # SCC-2S wins at every load.
    for name in ("OCC-BC", "WAIT-50", "2PL-PA"):
        for i in range(len(rates)):
            assert series["SCC-2S"][i] <= series[name][i] + 1.0, (name, i)
    # 2PL-PA collapses hardest at high load.
    assert series["2PL-PA"][high] > series["OCC-BC"][high]
    assert series["2PL-PA"][high] > series["SCC-2S"][high]
    # WAIT-50 loses its low-load advantage at high load (paper's crossover).
    assert series["WAIT-50"][high] >= series["OCC-BC"][high] - 1.0
