"""Figure 15: SCC-VW's Missed Ratio (a) and Average Tardiness (b).

Paper claims: SCC-VW misses *more* deadlines than SCC-2S (it optimizes
expected value, not timeliness) but misses them by a *smaller margin*
(lower Average Tardiness).
"""

from repro.metrics.report import format_series_table


def test_fig15_vw_missed_and_tardiness(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("fig14a-fig15")
    results = benchmark.pedantic(
        lambda: spec.run(config=config, executor=bench_executor),
        rounds=1, iterations=1
    )
    rates = list(config.arrival_rates)
    missed = {name: sweep.missed_ratio() for name, sweep in results.items()}
    tardiness = {name: sweep.avg_tardiness() for name, sweep in results.items()}
    print()
    print(
        format_series_table(
            "arrival_rate", rates, missed,
            title="Figure 15(a): Missed Ratio (%)",
        )
    )
    print()
    print(
        format_series_table(
            "arrival_rate", rates, tardiness,
            title="Figure 15(b): Average Tardiness (s)",
        )
    )
    high = len(rates) - 1
    # Both SCC variants stay well below the OCC family on Missed Ratio.
    # (The paper reports SCC-VW missing slightly *more* than SCC-2S; in
    # our simulator the deferment often helps timeliness too — recorded
    # as a divergence in EXPERIMENTS.md.)
    assert missed["SCC-VW"][high] <= missed["OCC-BC"][high] + 1.0
    assert missed["SCC-2S"][high] <= missed["OCC-BC"][high] + 1.0
    # The robust half of the paper's Figure 15(b) claim: SCC-VW's late
    # transactions miss by no more than SCC-2S's.
    assert tardiness["SCC-VW"][high] <= tardiness["SCC-2S"][high] + 0.05
