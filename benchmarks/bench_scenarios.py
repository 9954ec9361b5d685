"""Registered workload scenarios as sweep benchmarks.

One benchmark per scenario in the ``repro.workloads.scenarios`` registry,
each sweeping SCC-2S vs OCC-BC over the reduced-scale rate grid through
the shared bench executor.  This keeps every scenario — and therefore
every arrival process and access pattern — under the CI regression gate:
a slowdown in e.g. Zipfian page selection or MMPP state stepping shows up
as a wall-clock regression on its scenario's entry.

The per-protocol missed ratios are recorded as ``extra_info`` so the JSON
results double as a contention fingerprint per scenario.
"""

import pytest

from repro.experiments.spec import Experiment
from repro.metrics.report import format_series_table
from repro.workloads.scenarios import available_scenarios


@pytest.mark.parametrize("name", available_scenarios())
def test_scenario_sweep(benchmark, bench_config, bench_executor, name):
    rates = bench_config.arrival_rates
    spec = Experiment.scenario(name).protocols("scc-2s", "occ-bc").build()

    def run():
        return spec.run(
            arrival_rates=rates,
            executor=bench_executor,
            num_transactions=bench_config.num_transactions,
            warmup_commits=bench_config.warmup_commits,
            replications=1,
            check_serializability=False,
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_series_table(
            "arrival_rate",
            list(rates),
            {label: sweep.missed_ratio() for label, sweep in results.items()},
            title=f"Missed Ratio (%) — scenario {name}",
        )
    )
    for label, sweep in results.items():
        for rate_index, summaries in enumerate(sweep.replications):
            summary = summaries[0]
            assert summary.committed > 0
            assert 0.0 <= summary.missed_ratio <= 100.0
            benchmark.extra_info[f"{label}@{rates[rate_index]:g}"] = round(
                summary.missed_ratio, 2
            )
    # Load must bite somewhere: some protocol actually misses deadlines at
    # the top sweep rate (guards against a scenario silently degenerating
    # into a no-contention workload).
    assert any(
        sweep.missed_ratio()[-1] > 0.0 for sweep in results.values()
    )
