"""Value accounting at the no-deadline limit (paper §3.1, Defs 1-2).

A transaction earns its full value when it commits by its deadline.
With a slack factor so large that no deadline can be reached, every
protocol must miss nothing and earn 100% of the attainable system value,
however much it restarts, blocks or speculates under load.
"""

import pytest

from repro._record import replace
from repro.experiments.config import baseline_class, baseline_config
from repro.experiments.runner import run_once
from repro.protocols.registry import ProtocolSpec, available_protocols

NO_DEADLINE = baseline_config(
    classes=(replace(baseline_class(), slack_factor=1e6),),
    num_transactions=200,
    warmup_commits=20,
    replications=1,
)


@pytest.mark.parametrize("family", available_protocols())
def test_unbounded_slack_misses_nothing_and_earns_full_value(family):
    summary = run_once(ProtocolSpec.create(family), NO_DEADLINE, 150.0)
    assert summary.committed == 180
    assert summary.missed_ratio == 0.0
    assert summary.system_value == 100.0
