"""CI spec-smoke gate: `repro run spec.json` == hand-built protocols.

Runs every committed experiment spec under ``specs/`` end to end through
the CLI's ``run`` command with ``--format json``: ``ci-smoke.json`` at
its own scale, and each paper figure and ablation spec at a reduced
scale (``--transactions 60 --replications 1 --rates 60``).  It then
re-runs every cell of the *same grid* with
:func:`repro.experiments.runner.run_once` on hand-constructed protocol
instances over a hand-assembled config (``baseline_config``,
``two_class_config`` or the scenario's) — the pre-spec idiom — and
asserts every cell's summary is **bit-identical** between the two paths.

This is the acceptance gate of the declarative experiment API: the
ExperimentSpec facade is a pure re-description of the imperative path,
never a behavioural fork.  It also proves the protocol registry's
parameterized builds (``scc-ks?k=3``, ``wait-50?wait_threshold=0.25``)
match directly-constructed ``SCCkS(k=3)`` / ``Wait50(wait_threshold=0.25)``
instances exactly, and it is the independent check of each figure's
roster and workload: a roster entry, label or scenario edited in a spec
file makes its cells differ from the hand-built twin below.

Usage:  python scripts/spec_smoke.py
Exit codes: 0 OK, 1 mismatch.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.replacement import (  # noqa: E402
    DeadlineAwareReplacement,
    ValueAwareReplacement,
)
from repro.core.scc_2s import SCC2S  # noqa: E402
from repro.core.scc_ks import SCCkS  # noqa: E402
from repro.core.scc_vw import SCCVW  # noqa: E402
from repro.experiments.cli import main as cli_main  # noqa: E402
from repro.experiments.config import baseline_config, two_class_config  # noqa: E402
from repro.experiments.runner import run_once  # noqa: E402
from repro.protocols.occ_bc import OCCBroadcastCommit  # noqa: E402
from repro.protocols.twopl_pa import TwoPhaseLockingPA  # noqa: E402
from repro.protocols.wait50 import Wait50  # noqa: E402
from repro.workloads.scenarios import get_scenario  # noqa: E402

SPECS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "specs"
)

#: Reduced scale every figure and ablation spec runs at.
FIGURE_FLAGS = ["--transactions", "60", "--replications", "1", "--rates", "60"]
FIGURE_SCALE = dict(
    num_transactions=60, warmup_commits=6, replications=1, arrival_rates=(60.0,)
)

FIG13 = {
    "SCC-2S": SCC2S,
    "OCC-BC": OCCBroadcastCommit,
    "WAIT-50": Wait50,
    "2PL-PA": TwoPhaseLockingPA,
}
FIG14 = {
    "SCC-VW": SCCVW,
    "SCC-2S": SCC2S,
    "OCC-BC": OCCBroadcastCommit,
    "WAIT-50": Wait50,
}

#: spec file -> (CLI flags, hand-built config, {label: protocol factory}):
#: the hand-built twin of each committed spec, in the pre-spec idiom.
HAND_BUILT = {
    "ci-smoke.json": (
        [],
        get_scenario("flash-sale-hotspot").to_config(
            num_transactions=200, warmup_commits=20, replications=2,
            arrival_rates=(60.0, 140.0),
        ),
        {
            "SCC-3S": lambda: SCCkS(k=3),
            "OCC-BC": OCCBroadcastCommit,
            "WAIT-25": lambda: Wait50(wait_threshold=0.25),
        },
    ),
    "fig13.json": (FIGURE_FLAGS, baseline_config(**FIGURE_SCALE), FIG13),
    "fig14a-fig15.json": (FIGURE_FLAGS, baseline_config(**FIGURE_SCALE), FIG14),
    "fig14b.json": (FIGURE_FLAGS, two_class_config(**FIGURE_SCALE), FIG14),
    "ablation-k.json": (
        FIGURE_FLAGS,
        baseline_config(**FIGURE_SCALE),
        {
            "SCC-1S": lambda: SCCkS(k=1),
            "SCC-2S": lambda: SCCkS(k=2),
            "SCC-3S": lambda: SCCkS(k=3),
            "SCC-CB (k=inf)": lambda: SCCkS(k=None),
        },
    ),
    "ablation-replacement.json": (
        FIGURE_FLAGS,
        baseline_config(**FIGURE_SCALE),
        {
            "SCC-3S": lambda: SCCkS(k=3),
            "SCC-3S [replacement=deadline-aware]": lambda: SCCkS(
                k=3, replacement=DeadlineAwareReplacement()
            ),
            "SCC-3S [replacement=value-aware]": lambda: SCCkS(
                k=3, replacement=ValueAwareReplacement()
            ),
        },
    ),
    "ablation-wait.json": (
        FIGURE_FLAGS,
        baseline_config(**FIGURE_SCALE),
        {
            "OCC-BC": OCCBroadcastCommit,
            "WAIT-25": lambda: Wait50(wait_threshold=0.25),
            "WAIT-50": Wait50,
            "WAIT-100": lambda: Wait50(wait_threshold=1.0),
        },
    ),
    "ablation-resources.json": (
        FIGURE_FLAGS,
        baseline_config(**FIGURE_SCALE),
        {
            "SCC-2S": SCC2S,
            "OCC-BC": OCCBroadcastCommit,
            "2PL-PA": TwoPhaseLockingPA,
        },
    ),
}


def cli_records(spec_path: str, flags: list) -> list[dict]:
    """Run the spec through the CLI and return its JSON records."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["run", spec_path, "--format", "json", *flags])
    if code != 0:
        raise SystemExit(f"FAIL: CLI run of {spec_path} exited with {code}")
    return json.loads(stdout.getvalue())


def check_spec(name: str) -> int:
    """Compare one spec's CLI cells with its hand-built twin; 0 iff equal."""
    flags, config, hand_built = HAND_BUILT[name]
    records = cli_records(os.path.join(SPECS_DIR, name), flags)
    by_cell = {
        (r["protocol"], r["arrival_rate"], r["replication"]): r["summary"]
        for r in records
    }
    expected = {
        (label, rate, replication)
        for label in hand_built
        for rate in config.arrival_rates
        for replication in range(config.replications)
    }
    if len(records) != len(expected) or set(by_cell) != expected:
        print(
            f"FAIL: {name}: expected cells {sorted(expected)}, CLI produced "
            f"{len(records)} records for {sorted(by_cell)}"
        )
        return 1
    for record in records:
        spec = record["protocol_spec"]
        if not spec or "family" not in spec:
            print(f"FAIL: {name}: record for {record['protocol']} carries "
                  "no protocol_spec")
            return 1
    mismatches = 0
    for label, rate, replication in sorted(expected):
        summary = run_once(hand_built[label], config, rate, replication)
        if by_cell[(label, rate, replication)] != summary.to_dict():
            print(f"FAIL: {name}: summaries differ at cell "
                  f"{(label, rate, replication)}")
            mismatches += 1
    if mismatches:
        return 1
    print(f"  {name}: {len(expected)} cells bit-identical", flush=True)
    return 0


def main() -> int:
    committed = sorted(
        name for name in os.listdir(SPECS_DIR) if name.endswith(".json")
    )
    untwinned = sorted(set(committed) - set(HAND_BUILT))
    if untwinned:
        print(f"FAIL: committed specs without a hand-built twin: {untwinned}")
        return 1
    print(f"running {len(committed)} committed specs through the CLI and "
          "re-running every cell with hand-built protocols...", flush=True)
    failed = [name for name in committed if check_spec(name)]
    if failed:
        print(f"FAIL: {len(failed)} spec(s) differ from their hand-built "
              f"twins: {failed}")
        return 1
    print(
        f"OK: all {len(committed)} committed specs bit-identical between "
        "`repro run` and hand-built protocols; records carry protocol specs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
