"""CI spec-smoke gate: `repro run spec.json` == hand-built protocols.

Runs the committed experiment spec (``specs/ci-smoke.json``) end to end
through the CLI's ``run`` command with ``--format json``, then re-runs
every cell of the *same grid* with :func:`repro.experiments.runner.run_once`
on hand-constructed protocol instances and a hand-assembled scenario
config — the pre-spec idiom — and asserts every cell's summary is
**bit-identical** between the two paths.

This is the acceptance gate of the declarative experiment API: the
ExperimentSpec facade is a pure re-description of the imperative path,
never a behavioural fork.  It also proves the protocol registry's
parameterized builds (``scc-ks?k=3``, ``wait-50?wait_threshold=0.25``)
match directly-constructed ``SCCkS(k=3)`` / ``Wait50(wait_threshold=0.25)``
instances exactly.

Usage:  python scripts/spec_smoke.py [--spec specs/ci-smoke.json]
Exit codes: 0 OK, 1 mismatch.
"""

import argparse
import contextlib
import io
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.scc_ks import SCCkS  # noqa: E402
from repro.experiments.cli import main as cli_main  # noqa: E402
from repro.experiments.runner import run_once  # noqa: E402
from repro.protocols.occ_bc import OCCBroadcastCommit  # noqa: E402
from repro.protocols.wait50 import Wait50  # noqa: E402
from repro.workloads.scenarios import get_scenario  # noqa: E402

DEFAULT_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "specs",
    "ci-smoke.json",
)

# The hand-built twin of specs/ci-smoke.json: same grid, pre-spec idiom.
HAND_BUILT = {
    "SCC-3S": lambda: SCCkS(k=3),
    "OCC-BC": OCCBroadcastCommit,
    "WAIT-25": lambda: Wait50(wait_threshold=0.25),
}
SCENARIO = "flash-sale-hotspot"
RATES = (60.0, 140.0)
TRANSACTIONS = 200
WARMUP = 20
REPLICATIONS = 2


def cli_records(spec_path: str) -> list[dict]:
    """Run the spec through the CLI and return its JSON records."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["run", spec_path, "--format", "json"])
    if code != 0:
        raise SystemExit(f"FAIL: CLI run exited with {code}")
    return json.loads(stdout.getvalue())


def hand_built_config():
    """The scenario config of the grid, assembled by hand."""
    return get_scenario(SCENARIO).to_config(
        num_transactions=TRANSACTIONS,
        warmup_commits=WARMUP,
        replications=REPLICATIONS,
        arrival_rates=RATES,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    args = parser.parse_args()

    print(f"running {args.spec} through the CLI...", flush=True)
    records = cli_records(args.spec)
    by_cell = {
        (r["protocol"], r["arrival_rate"], r["replication"]): r["summary"]
        for r in records
    }

    expected = {
        (name, rate, replication)
        for name in HAND_BUILT
        for rate in RATES
        for replication in range(REPLICATIONS)
    }
    if len(records) != len(expected) or set(by_cell) != expected:
        print(
            f"FAIL: expected cells {sorted(expected)}, CLI produced "
            f"{len(records)} records for {sorted(by_cell)}"
        )
        return 1

    print("re-running every cell with hand-built protocols...", flush=True)
    config = hand_built_config()
    mismatches = 0
    for name, rate, replication in sorted(expected):
        summary = run_once(HAND_BUILT[name], config, rate, replication)
        if by_cell[(name, rate, replication)] != summary.to_dict():
            print(f"FAIL: summaries differ at cell {(name, rate, replication)}")
            mismatches += 1
    if mismatches:
        print(f"FAIL: {mismatches} cell(s) differ between spec and hand-built runs")
        return 1

    specs_seen = {r["protocol"]: r["protocol_spec"] for r in records}
    for label, spec in specs_seen.items():
        if not spec or "family" not in spec:
            print(f"FAIL: record for {label} carries no protocol_spec")
            return 1

    print(
        f"OK: {len(expected)} cells bit-identical between "
        "`repro run` and hand-built protocols; records carry protocol specs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
