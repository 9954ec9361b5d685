"""Ablation A3: shadow replacement policies (§2.1's LBFO and alternatives).

The paper adopts LBFO and remarks that deadline/priority information could
pick "the most probable serialization orders" instead.  This bench runs
SCC-3S under LBFO, deadline-aware, and value-aware replacement on the same
workloads.
"""

from repro.metrics.report import format_series_table


def test_ablation_replacement_policies(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("ablation-replacement")
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
            title="A3: SCC-3S Missed Ratio (%) by replacement policy",
        )
    )
    # All policies must stay in a sane band of each other: replacement
    # matters at the margin, not by an order of magnitude.
    high = len(rates) - 1
    values = [series[name][high] for name in series]
    assert max(values) - min(values) <= 15.0
    for name, sweep in results.items():
        assert all(0.0 <= m <= 100.0 for m in sweep.missed_ratio()), name
