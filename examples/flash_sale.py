"""A retail flash sale: hotspot contention with flat patience deadlines.

Drives the registered ``flash-sale-hotspot`` scenario: 80% of page
accesses hammer the 10% of the database holding sale inventory, while two
transaction classes race —

* **checkout** (20% of traffic): write-heavy (50% updates), valuable,
  steeply penalized when late (an abandoned cart).
* **browse** (80%): read-mostly catalogue scans, cheap.

Every user has the same flat 0.4 s patience window
(:class:`~repro.workloads.extensions.FixedOffsetDeadlines`) regardless of
transaction length — patience is a property of people, not of programs.

The example sweeps the blocking, restart-based, and speculative protocol
families over the hotspot and prints who survives: hotspot write-write
conflicts convoy 2PL-PA, restarts punish OCC-BC, and the speculative
shadows of SCC-2S buy their keep.  Compare the same table under
``paper-baseline`` (uniform access) to see how much of the damage is the
skew itself.

Run:  python examples/flash_sale.py [--rate TPS] [--transactions N]
"""

import argparse

from repro import get_scenario
from repro.experiments.spec import Experiment
from repro.metrics.report import format_table

SCENARIO = "flash-sale-hotspot"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=100.0)
    parser.add_argument("--transactions", type=int, default=1_000)
    args = parser.parse_args()

    scenario = get_scenario(SCENARIO)
    hot_pages = scenario.access.hot_pages(scenario.num_pages)
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(
        f"hotspot: {scenario.access.hot_access_fraction:.0%} of accesses on "
        f"{hot_pages} of {scenario.num_pages} pages\n"
    )

    results = (
        Experiment.scenario(scenario)
        .protocols("scc-2s", "occ-bc", "wait-50", "2pl-pa")
        .rates(args.rate)
        .transactions(args.transactions)
        .warmup(min(200, args.transactions // 10))
        .replications(1)
        .seed(7)
        .run()
    )

    rows = []
    for name, sweep in results.items():
        summary = sweep.replications[0][0]
        rows.append(
            (
                name,
                summary.missed_ratio,
                summary.system_value,
                summary.per_class_value.get("checkout", 0.0),
                summary.per_class_value.get("browse", 0.0),
                summary.restarts,
            )
        )
    print(
        format_table(
            [
                "protocol",
                "missed %",
                "system value %",
                "checkout value %",
                "browse value %",
                "restarts",
            ],
            rows,
            title=f"Flash sale at {args.rate:g} txn/s "
            f"({args.transactions} transactions, 0.4 s patience)",
        )
    )
    best = max(rows, key=lambda row: row[2])
    print(f"\nBest System Value under the hotspot: {best[0]} ({best[2]:.2f}%).")


if __name__ == "__main__":
    main()
