"""Ablation A2: finite resources (the introduction's PCC-vs-OCC argument).

The paper's premise: restart/speculation-based protocols only dominate
when wasted resources are affordable.  With a single-digit server pool the
wasted work of OCC restarts and SCC shadows queues everyone; blocking-based
2PL conserves resources.  With abundant servers the advantage flips.
"""

from repro.metrics.report import format_table

#: Server-pool sizes swept; ``None`` is infinite resources.
SERVER_COUNTS = (4, 32, None)


def test_ablation_resource_contention(benchmark, bench_spec, bench_executor):
    # The spec fixes the rate (70 tps); the pool size is config data.
    runs = {
        count: bench_spec(
            "ablation-resources", num_transactions=300, warmup_commits=30,
            arrival_rates=None, num_servers=count,
        )
        for count in SERVER_COUNTS
    }

    def sweep():
        results = {}
        for count, (spec, config) in runs.items():
            label = "servers=inf" if count is None else f"servers={count}"
            for name, result in spec.run(
                config=config, executor=bench_executor
            ).items():
                results[f"{name} {label}"] = result
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    table = {}
    for key, sweep in results.items():
        summary = sweep.replications[0][0]
        rows.append((key, summary.missed_ratio, summary.avg_response_time))
        table[key] = summary
    print()
    print(
        format_table(
            ["configuration", "missed %", "avg response (s)"],
            rows,
            title="A2: finite vs infinite resources at 70 tps",
        )
    )
    # Scarce servers hurt every protocol relative to infinite resources.
    for name in ("SCC-2S", "OCC-BC", "2PL-PA"):
        scarce = table[f"{name} servers=4"].missed_ratio
        infinite = table[f"{name} servers=inf"].missed_ratio
        assert scarce >= infinite - 1.0, name
    # With abundant resources SCC-2S dominates 2PL-PA (the paper's regime).
    assert (
        table["SCC-2S servers=inf"].missed_ratio
        <= table["2PL-PA servers=inf"].missed_ratio + 1.0
    )
