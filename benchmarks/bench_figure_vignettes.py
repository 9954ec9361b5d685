"""Figures 1, 2 and 10 as micro-benchmarks (E8 in DESIGN.md).

Prints the exact per-protocol commit schedule of the paper's illustrative
conflicts and asserts the qualitative chain OCC > OCC-BC > SCC for the
victim's finishing time, plus the Figure 10 deferment value gain.

(Previously ``bench_scenarios.py``; renamed when that name moved to the
workload-scenario sweeps of the ``repro.workloads`` registry.)
"""

from repro.core.scc_2s import SCC2S
from repro.core.scc_vw import SCCVW
from repro.metrics.report import format_table
from repro.metrics.stats import MetricsCollector
from repro.protocols.occ import BasicOCC
from repro.protocols.occ_bc import OCCBroadcastCommit
from repro.system.model import RTDBSystem
from repro.system.resources import InfiniteResources
from repro.txn.spec import Step, TransactionSpec
from repro.values.classes import TransactionClass


def _run(protocol, specs):
    system = RTDBSystem(
        protocol=protocol,
        num_pages=64,
        resources=InfiniteResources(cpu_time=1.0, io_time=0.0),
        metrics=MetricsCollector(),
    )
    system.load_workload(specs)
    system.run()
    return {t.txn_id: t.commit_time for t in system.history}, system


def _figure12_specs():
    cls = TransactionClass(
        name="vignette", num_steps=4, write_probability=0.25, slack_factor=2.0
    )
    w = [Step(0, True), Step(1, False), Step(2, False)]
    r = [Step(3, False), Step(0, False), Step(4, False), Step(5, False)]
    return [
        TransactionSpec.build(0, 0.0, w, txn_class=cls, step_duration=1.0),
        TransactionSpec.build(1, 0.0, r, txn_class=cls, step_duration=1.0),
    ]


def test_figures_1_and_2_restart_vs_adoption(benchmark):
    def run_all():
        rows = []
        for name, factory in (
            ("Basic OCC (fig 1a)", BasicOCC),
            ("OCC-BC (fig 1b)", OCCBroadcastCommit),
            ("SCC-2S (fig 2b)", SCC2S),
        ):
            commits, system = _run(factory(), _figure12_specs())
            rows.append(
                (name, commits[0], commits[1], system.metrics.restarts)
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["protocol", "T1 commit", "T2 commit", "restarts"],
            rows,
            title="Figures 1-2: the same conflict under OCC / OCC-BC / SCC",
        )
    )
    by_name = {name: t2 for name, _, t2, _ in rows}
    assert (
        by_name["SCC-2S (fig 2b)"]
        < by_name["OCC-BC (fig 1b)"]
        < by_name["Basic OCC (fig 1a)"]
    )


def _figure10_specs():
    cheap = TransactionClass(
        name="cheap", num_steps=2, write_probability=0.5, slack_factor=2.0,
        value=1.0,
    )
    precious = TransactionClass(
        name="precious", num_steps=4, write_probability=0.0, slack_factor=2.0,
        value=10.0,
    )
    writer = [Step(8, False), Step(0, True)]
    reader = [Step(0, False), Step(9, False), Step(10, False), Step(11, False)]
    return [
        TransactionSpec.build(
            0, 0.0, writer, txn_class=cheap, step_duration=1.0, deadline=3.0
        ),
        TransactionSpec.build(
            1, 0.0, reader, txn_class=precious, step_duration=1.0, deadline=4.5
        ),
    ]


def test_figure10_deferment_value(benchmark):
    def run_both():
        results = {}
        for name, factory in (
            ("SCC-2S (no deferment)", SCC2S),
            ("SCC-VW (deferment)", lambda: SCCVW(period=0.25)),
        ):
            commits, system = _run(factory(), _figure10_specs())
            results[name] = (
                commits[0],
                commits[1],
                system.metrics.summary().system_value,
            )
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["protocol", "T1 commit", "T2 commit", "System Value %"],
            [(k, *v) for k, v in results.items()],
            title="Figure 10: value with and without commit deferment",
        )
    )
    assert (
        results["SCC-VW (deferment)"][2] > results["SCC-2S (no deferment)"][2]
    )
    assert results["SCC-VW (deferment)"][1] <= 4.5  # reader met its deadline
