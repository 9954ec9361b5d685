"""Regenerate the committed simulation references (tests/golden/).

The golden-output test (``tests/golden/test_determinism_golden.py``)
asserts that fixed-seed simulation runs produce *metric-for-metric
identical* results across code changes: performance work on the engine,
core SCC algorithms, or protocols must never change what the simulation
computes, only how fast it computes it.  The engine tests
(``tests/engine/``) hold single cells, same-instant bursts and trace
digests to ``engine_reference.json`` the same way.

This script re-records both references.  Run it ONLY when a change is
*meant* to alter simulation results (a new protocol rule, a workload
semantics change, a metrics fix) — never to paper over an unintended
divergence introduced by an optimization.  Commit the refreshed JSON with
an explanation of why the results legitimately changed.

Usage::

    PYTHONPATH=src python scripts/gen_golden_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from tests.golden.golden_common import (  # noqa: E402
    ENGINE_REFERENCE_PATH,
    GOLDEN_PATH,
    compute_engine_reference,
    compute_golden_payload,
)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    payload = compute_golden_payload()
    write_json(GOLDEN_PATH, payload)
    runs = sum(len(v["summaries"]) for v in payload["scenarios"].values())
    print(f"golden reference written to {GOLDEN_PATH} ({runs} protocol sweeps)")
    reference = compute_engine_reference()
    write_json(ENGINE_REFERENCE_PATH, reference)
    cells = len(reference["summaries"]) + len(reference["bursts"]) + sum(
        len(traces) for traces in reference["traces"].values()
    )
    print(f"engine reference written to {ENGINE_REFERENCE_PATH} ({cells} cells)")


if __name__ == "__main__":
    main()
