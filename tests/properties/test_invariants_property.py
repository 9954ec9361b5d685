"""Property-based tests of SCC shadow invariants and value machinery."""

import math

# mean_confidence_interval imports scipy.stats lazily, and that first
# import takes about a second.  Loading it with this module keeps the
# cost out of the first timed example of the confidence-interval test,
# whatever else the session has imported before.
import scipy.stats  # noqa: F401
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conflict_table import ConflictTable
from repro.core.probability import AdoptionProfile, adoption_profiles
from repro.core.scc_ks import SCCkS
from repro.core.shadow_counts import (
    scc_cb_total_shadows,
    scc_ob_shadows,
    scc_ob_shadows_enumerated,
)
from repro.metrics.confidence import mean_confidence_interval
from repro.workloads.generator import fixed_workload
from repro.txn.spec import Step
from repro.values.value_function import ValueFunction
from tests.conftest import build_system, make_class


# ----------------------------------------------------------------------
# value functions
# ----------------------------------------------------------------------


@given(
    value=st.floats(min_value=0.0, max_value=1e6),
    deadline=st.floats(min_value=0.0, max_value=1e6),
    gradient=st.floats(min_value=0.0, max_value=1e3),
    t1=st.floats(min_value=0.0, max_value=2e6),
    t2=st.floats(min_value=0.0, max_value=2e6),
)
def test_value_functions_are_non_increasing(value, deadline, gradient, t1, t2):
    vf = ValueFunction(value=value, deadline=deadline, penalty_gradient=gradient)
    lo, hi = min(t1, t2), max(t1, t2)
    assert vf(lo) >= vf(hi)


@given(
    value=st.floats(min_value=0.01, max_value=1e4),
    deadline=st.floats(min_value=0.0, max_value=1e4),
    gradient=st.floats(min_value=1e-3, max_value=1e3),
)
def test_breakeven_is_the_zero_crossing(value, deadline, gradient):
    vf = ValueFunction(value=value, deadline=deadline, penalty_gradient=gradient)
    t0 = vf.breakeven_time()
    assert vf(t0) == abs(vf(t0)) or math.isclose(vf(t0), 0.0, abs_tol=1e-6)
    assert vf(t0 * 1.001 + 1e-6) <= 0.0


# ----------------------------------------------------------------------
# conflict table
# ----------------------------------------------------------------------


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # writer
            st.integers(min_value=0, max_value=9),  # page
            st.integers(min_value=0, max_value=15),  # position
        ),
        max_size=40,
    )
)
def test_conflict_table_first_pos_is_minimum(events):
    table = ConflictTable()
    minima = {}
    for writer, page, position in events:
        table.record(writer, page, position)
        minima[writer] = min(minima.get(writer, position), position)
    for writer, expected in minima.items():
        assert table.blocking_point(writer) == expected
    ordered = [r.first_pos for r in table.records()]
    assert ordered == sorted(ordered)


# ----------------------------------------------------------------------
# shadow counts
# ----------------------------------------------------------------------


@given(n=st.integers(min_value=1, max_value=9))
def test_ob_formula_equals_enumeration(n):
    assert scc_ob_shadows(n) == scc_ob_shadows_enumerated(n)


@given(n=st.integers(min_value=3, max_value=12))
def test_cb_quadratic_below_ob_factorial(n):
    assert scc_cb_total_shadows(n) <= scc_ob_shadows(n)


# ----------------------------------------------------------------------
# adoption probabilities on live systems
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    now=st.floats(min_value=0.5, max_value=6.0),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_adoption_mass_sums_to_one_mid_run(seed, now):
    import numpy as np

    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(4):
        pages = rng.choice(6, size=3, replace=False)
        flags = rng.random(3) < 0.5
        programs.append(
            [Step(page=int(p), is_write=bool(w)) for p, w in zip(pages, flags)]
        )
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=programs,
        arrivals=[0.0, 0.3, 0.6, 0.9],
        txn_class=make_class(num_steps=3),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=6)
    system.load_workload(specs)
    system.sim.run(until=now)
    for profile in adoption_profiles(protocol, now=system.sim.now).values():
        assert isinstance(profile, AdoptionProfile)
        assert profile.total() == __import__("pytest").approx(1.0)
        assert 0.0 <= profile.p_optimistic <= 1.0
    system.sim.run()


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------


@given(
    samples=st.lists(
        st.floats(min_value=-1e5, max_value=1e5),
        min_size=2,
        max_size=30,
    )
)
def test_confidence_interval_contains_sample_mean(samples):
    import numpy as np

    ci = mean_confidence_interval(samples, level=0.9)
    assert ci.contains(float(np.mean(samples)))
    assert ci.half_width >= 0.0


# ----------------------------------------------------------------------
# SCC shadow invariants under random mid-run inspection
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    checkpoint=st.floats(min_value=0.5, max_value=8.0),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scc_invariants_hold_at_any_instant(seed, checkpoint):
    import numpy as np

    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(5):
        length = int(rng.integers(2, 5))
        pages = rng.choice(6, size=length, replace=False)
        flags = rng.random(length) < 0.4
        programs.append(
            [Step(page=int(p), is_write=bool(w)) for p, w in zip(pages, flags)]
        )
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=programs,
        arrivals=[float(a) for a in rng.random(5) * 3.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=6)
    system.load_workload(specs)
    system.sim.run(until=checkpoint)
    protocol.check_invariants()
    system.sim.run()
    protocol.check_invariants()
    assert system.committed_count == 5
