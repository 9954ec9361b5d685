"""Output checks: every workload's stored records must be complete and right.

For any seed, each store holds exactly one record per grid cell of each
spec seed it served, fingerprints are unique, every cell committed all of
its transactions, and missed ratios are percentages.  On ``paper-sweep``
the paper's ordering must hold: SCC-2S misses no more deadlines than
OCC-BC at rates 70 and 150.  At the default seed, a sha256 over the
summaries must also match ``expected.json``; that file changes only when
the program's results are deliberately re-anchored.

Stores are read through ``repro.results.open_store``, the program's public
store API, so the checks hold whatever backend or layout a store uses.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from harness import GRIDS, SRC, cells_in

EXPECTED = Path(__file__).resolve().with_name("expected.json")

#: The seed ``expected.json`` holds digests for.
DEFAULT_SEED = 1995

#: (better, worse, rates): the paper-sweep ordering check.
PAPER_ORDER = ("SCC-2S", "OCC-BC", (70.0, 150.0))


def load_records(store: Path) -> tuple[list, int]:
    """Every record of a store as a dict, plus its corrupt-row count."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.results import open_store

    with open_store(str(store)) as opened:
        return [record.to_dict() for record in opened.records()], opened.corrupt_lines


def summary_digest(records: Iterable[dict], seeds: Iterable[int]) -> str:
    """sha256 over the summaries of the given spec seeds' records."""
    wanted = set(seeds)
    rows = sorted(
        (r["seed"], r["protocol"], r["arrival_rate"], r["replication"],
         json.dumps(r["summary"], sort_keys=True, separators=(",", ":")))
        for r in records
        if r["seed"] in wanted
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def expected_digest(workload: str, scale: str, seed: int) -> Optional[str]:
    """The committed digest for this workload, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED.read_text())["digests"][scale][workload]


def check_records(records: list, workload: str, scale: str, seeds: list) -> list:
    """Problems with a store's records, as messages (empty when right)."""
    grid = GRIDS[scale][workload]
    cells = cells_in(grid)
    problems = []
    fingerprints = [r["fingerprint"] for r in records]
    if len(set(fingerprints)) != len(fingerprints):
        problems.append("duplicate fingerprints in the store")
    by_seed: dict = {}
    for record in records:
        by_seed.setdefault(record["seed"], []).append(record)
    if sorted(by_seed) != sorted(set(seeds)):
        problems.append(
            f"store holds {len(by_seed)} spec seed(s), expected {len(set(seeds))}"
        )
    for seed, group in by_seed.items():
        coords = {(r["protocol"], r["arrival_rate"], r["replication"]) for r in group}
        shape = (
            len({r["protocol"] for r in group}),
            sorted({r["arrival_rate"] for r in group}),
            sorted({r["replication"] for r in group}),
        )
        expected_shape = (
            len(grid["protocols"]),
            sorted(grid["arrival_rates"]),
            list(range(grid["replications"])),
        )
        if len(group) != cells or len(coords) != cells or shape != expected_shape:
            problems.append(
                f"seed {seed}: {len(group)} record(s) over {len(coords)} "
                f"cell(s), expected one record for each of {cells} cells"
            )
    txns = grid["num_transactions"]
    measured = txns - grid["warmup_commits"]
    for r in records:
        where = f"{r['protocol']}@{r['arrival_rate']:g}#{r['replication']} seed {r['seed']}"
        summary = r["summary"]
        commits = ((r.get("telemetry") or {}).get("counters") or {}).get("commits")
        if summary["committed"] != measured or commits != txns:
            problems.append(
                f"{where}: committed {summary['committed']} after warmup and "
                f"{commits} in all, expected {measured} and {txns}"
            )
        if not 0.0 <= summary["missed_ratio"] <= 100.0:
            problems.append(f"{where}: missed ratio {summary['missed_ratio']}")
    if workload == "paper-sweep":
        better, worse, rates = PAPER_ORDER
        for seed, group in by_seed.items():
            for rate in rates:
                mean = {}
                for label in (better, worse):
                    values = [
                        r["summary"]["missed_ratio"] for r in group
                        if r["protocol"] == label and r["arrival_rate"] == rate
                    ]
                    mean[label] = sum(values) / len(values) if values else None
                if None in mean.values():
                    continue
                if mean[better] > mean[worse]:
                    problems.append(
                        f"seed {seed} rate {rate:g}: {better} missed "
                        f"{mean[better]:.2f}% > {worse} {mean[worse]:.2f}%"
                    )
    return problems


def check_store(
    store: Path, workload: str, scale: str, seeds: list,
    digest_seeds: list, bench_seed: int,
) -> tuple[list, list, str]:
    """Load and check one store.

    Returns ``(problems, records, digest)``; the digest covers
    ``digest_seeds`` and is compared with ``expected.json`` at the
    default benchmark seed.
    """
    records, corrupt = load_records(store)
    problems = check_records(records, workload, scale, seeds)
    if corrupt:
        problems.append(f"{corrupt} corrupt row(s) in {store.name}")
    digest = summary_digest(records, digest_seeds)
    expected = expected_digest(workload, scale, bench_seed)
    if expected is not None and digest != expected:
        problems.append(
            f"summary digest {digest[:12]} differs from expected.json's "
            f"{expected[:12]}"
        )
    return problems, records, digest
