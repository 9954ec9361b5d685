"""Compare two sets of end-to-end runs, for example a parent and a change.

Usage::

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` writes, at least
five untraced runs per workload.  For every workload and end-to-end metric
this prints each side's median and quartiles and one verdict:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound (``failed_frac`` may not rise at all);
* ``improved`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians are further apart than the parent's
  interquartile range;
* ``unresolved`` — neither, and the runs spread wider than the bound, so
  "unchanged" cannot be claimed (unless every change run beats every
  parent run);
* ``unchanged`` — otherwise.

The gate is ``BENCHMARK.json``: its ``end_to_end`` metrics with their
bounds, plus ``failed_frac`` with bound 0.  Only these decide the exit
status.  Every other metric the runs printed (``wall_s``, the gateway
percentiles, ...) follows in a second table, judged against
:data:`INFO_BOUND` for reading only; a row there whose runs spread
wider than that reads ``unresolved`` whatever its medians.

Runs pair up by seed when both sides used the same seeds, else in file
order.  Exits 1 if a gated metric regressed, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_RUNS = 5
#: The bound the issue set for every end-to-end timing; used for the
#: rows ``BENCHMARK.json`` does not gate.
INFO_BOUND = 0.1


def load(directory: Path) -> dict:
    """workload -> list of untraced result documents, in file order."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def spread(values) -> tuple:
    """(median, first quartile, third quartile), as ``statistics.quantiles``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def pairs(parent: list, change: list, name: str) -> list:
    def by_seed(docs):
        return {d["seed"]: d["metrics"][name]["value"] for d in docs
                if name in d["metrics"]}

    a, b = by_seed(parent), by_seed(change)
    if len(a) == len(parent) and a.keys() == b.keys():
        return [(a[seed], b[seed]) for seed in sorted(a)]
    values = lambda docs: [d["metrics"][name]["value"]  # noqa: E731
                           for d in docs if name in d["metrics"]]
    return list(zip(values(parent), values(change)))


def verdict(parent_values, change_values, matched, bound, gated=True) -> str:
    """One verdict for a metric.

    A metric outside the gate was left out because its runs spread wider
    than the bound, so for it the spread is tested first: a median
    difference inside that spread reads ``unresolved``, not ``regressed``.
    """
    med_a, q1_a, q3_a = spread(parent_values)
    med_b, q1_b, q3_b = spread(change_values)
    if bound == 0:
        return "regressed" if max(change_values) > max(parent_values) else "unchanged"
    wins = sum(1 for a, b in matched if b < a)
    if wins >= 0.9 * len(matched) and med_a - med_b > q3_a - q1_a:
        return "improved"
    widest = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b) if med_a and med_b else 0
    noisy = widest > bound and not max(change_values) < min(parent_values)
    if noisy and not gated:
        return "unresolved"
    if med_b > med_a * (1 + bound):
        return "regressed"
    return "unresolved" if noisy else "unchanged"


def table(parent: dict, change: dict, workloads: list, bounds: dict, gated: bool) -> int:
    """Print one row per workload and metric; returns the regressions."""
    print(f"{'workload':18s} {'metric':20s} {'unit':8s} {'bound':>5s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'delta':>7s} {'wins':>6s}  verdict")
    regressed = 0
    for workload in workloads:
        for name, bound in bounds.items():
            matched = pairs(parent[workload], change[workload], name)
            if len(matched) < MIN_RUNS:
                continue
            a = [x for x, _ in matched]
            b = [y for _, y in matched]
            unit = next(d["metrics"][name]["unit"] for d in parent[workload]
                        if name in d["metrics"])
            med_a, q1_a, q3_a = spread(a)
            med_b, q1_b, q3_b = spread(b)
            delta = (med_b - med_a) / med_a if med_a else 0.0
            wins = sum(1 for x, y in matched if y < x)
            result = verdict(a, b, matched, bound, gated)
            regressed += result == "regressed"
            print(
                f"{workload:18s} {name:20s} {unit:8s} {bound:5.2f} "
                f"{med_a:12.5g} [{q1_a:9.5g}, {q3_a:9.5g}] "
                f"{med_b:12.5g} [{q1_b:9.5g}, {q3_b:9.5g}] "
                f"{delta:+7.1%} {wins:>2d}/{len(matched):<3d}  {result}"
            )
    return regressed


def compare(parent_dir: Path, change_dir: Path) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    gated = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    gated["failed_frac"] = 0.0
    parent, change = load(parent_dir), load(change_dir)
    workloads = [w for w in parent if w in change]
    short = [w for w in workloads
             if min(len(parent[w]), len(change[w])) < MIN_RUNS]
    if not workloads or short:
        print(f"compare: need at least {MIN_RUNS} untraced runs per workload "
              f"on both sides (short: {', '.join(short) or 'no common workload'})",
              file=sys.stderr)
        return 2
    printed = [name for w in workloads for d in parent[w] for name in d["metrics"]]
    info = {name: INFO_BOUND for name in dict.fromkeys(printed) if name not in gated}
    print("Gated (BENCHMARK.json end_to_end, and failed_frac):")
    regressed = table(parent, change, workloads, gated, True)
    if info:
        print("\nNot gated (for reading; no effect on the exit status):")
        table(parent, change, workloads, info, False)
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
