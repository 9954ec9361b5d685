"""Ablation A1: the shadow budget k (resources-for-timeliness dial, §2.1).

``k=1`` disables speculation entirely (pure OCC-BC behaviour); raising k
buys timeliness with redundant work.  The bench prints the Missed Ratio
and the wasted-work fraction side by side — the paper's "rationing
resources amongst competing transactions" trade made visible.
"""

from repro.metrics.report import format_table


def test_ablation_k_timeliness_vs_redundancy(benchmark, bench_spec, bench_executor):
    spec, config = bench_spec("ablation-k")
    results = benchmark.pedantic(
        lambda: spec.run(config=config, executor=bench_executor),
        rounds=1, iterations=1
    )
    high = len(config.arrival_rates) - 1
    rows = []
    for name, sweep in results.items():
        summary = sweep.replications[high][0]
        rows.append(
            (
                name,
                summary.missed_ratio,
                summary.shadow_aborts,
                100.0 * summary.wasted_fraction,
            )
        )
    print()
    print(
        format_table(
            ["protocol", "missed %", "shadow aborts", "wasted work %"],
            rows,
            title=f"A1: k-budget at {config.arrival_rates[high]:g} tps",
        )
    )
    by_name = {row[0]: row for row in rows}
    # More shadows -> no worse timeliness (small tolerance for noise)...
    assert by_name["SCC-2S"][1] <= by_name["SCC-1S"][1] + 1.0
    assert by_name["SCC-3S"][1] <= by_name["SCC-2S"][1] + 1.0
    # ...but more redundant (aborted-shadow) work.
    assert by_name["SCC-3S"][2] >= by_name["SCC-1S"][2]
