"""Value-cognizant scheduling for a telecom billing RTDBS.

The paper's §3 motivation in a concrete setting, now driven entirely by
the scenario registry: the ``bursty-telecom`` scenario binds an on/off
MMPP arrival process (call storms at 8x the quiet rate) to the Figure
14(b) two-class mix —

* **fraud-check** (10% of traffic): long (32 pages), tight deadline
  (slack 1.5), very valuable when on time (a blocked fraudulent call), and
  steeply penalized when late (the call completes unbilled).
* **usage-update** (90%): short (14 pages), loose deadline, low value,
  mild penalty (the record just posts late).

The example compares a value-oblivious speculative protocol (SCC-2S) with
the value-cognizant SCC-VW and shows where the extra System Value comes
from: the per-class breakdown reveals SCC-VW deferring cheap usage-updates
whenever doing so keeps a fraud-check on time — and the bursts are exactly
when that choice matters.

Everything workload-specific comes from ``get_scenario("bursty-telecom")``;
swap the name (see ``scc-experiments scenarios``) to re-run the same
comparison under any other registered workload.

Run:  python examples/telecom_billing.py [--rate TPS] [--transactions N]
"""

import argparse

from repro import get_scenario
from repro.experiments.spec import Experiment
from repro.metrics.report import format_table

SCENARIO = "bursty-telecom"

#: What each contender knows about transaction values.
STANCE = {"SCC-2S": "value-oblivious", "SCC-VW": "value-cognizant"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=120.0)
    parser.add_argument("--transactions", type=int, default=1_000)
    args = parser.parse_args()

    scenario = get_scenario(SCENARIO)
    print(f"scenario: {scenario.name} — {scenario.description}\n")

    results = (
        Experiment.scenario(scenario)
        .protocols("scc-2s", "scc-vw?period=0.01")
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
                f"{name} ({STANCE[name]})",
                summary.system_value,
                summary.per_class_value.get("fraud-check", 0.0),
                summary.per_class_value.get("usage-update", 0.0),
                summary.missed_ratio,
                summary.deferred_commits,
            )
        )
    print(
        format_table(
            [
                "protocol",
                "system value %",
                "fraud-check value %",
                "usage-update value %",
                "missed %",
                "deferred commits",
            ],
            rows,
            title=f"Telecom billing mix at {args.rate:g} txn/s mean "
            f"({args.transactions} transactions, MMPP bursts)",
        )
    )
    gain = rows[1][1] - rows[0][1]
    print(
        f"\nValue-cognizant deferment changed System Value by "
        f"{gain:+.2f} percentage points."
    )


if __name__ == "__main__":
    main()
