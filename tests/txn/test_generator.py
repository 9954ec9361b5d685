"""Unit tests for the workload generator (paper §4 baseline model).

The baseline generator is a :class:`TransactionGenerator` over Poisson
arrivals with the default uniform access and slack deadlines.
"""

import numpy as np
import pytest

from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import TransactionGenerator, fixed_workload
from tests.conftest import R, W, make_class


def make_generator(rate=50.0, classes=None, seed=7, num_pages=1000):
    return TransactionGenerator(
        classes=classes or [make_class(num_steps=16)],
        num_pages=num_pages,
        step_duration=0.006,
        streams=RandomStreams(seed),
        arrivals=PoissonArrivals(rate),
    )


def test_arrivals_are_increasing_and_ids_sequential():
    generator = make_generator()
    specs = list(generator.generate(50))
    arrivals = [s.arrival for s in specs]
    assert arrivals == sorted(arrivals)
    assert [s.txn_id for s in specs] == list(range(50))


def test_arrival_rate_roughly_matches():
    generator = make_generator(rate=100.0)
    specs = list(generator.generate(4000))
    duration = specs[-1].arrival - specs[0].arrival
    empirical_rate = (len(specs) - 1) / duration
    assert empirical_rate == pytest.approx(100.0, rel=0.1)


def test_pages_distinct_within_transaction():
    generator = make_generator()
    for spec in generator.generate(100):
        pages = [step.page for step in spec.steps]
        assert len(set(pages)) == len(pages)
        assert all(0 <= p < 1000 for p in pages)


def test_write_probability_respected():
    generator = make_generator()
    specs = list(generator.generate(2000))
    writes = sum(sum(1 for st in s.steps if st.is_write) for s in specs)
    total = sum(len(s.steps) for s in specs)
    assert writes / total == pytest.approx(0.25, abs=0.02)


def test_deadline_uses_slack_factor():
    generator = make_generator()
    spec = generator.generate(1)[0]
    expected = spec.arrival + 2.0 * 16 * 0.006
    assert spec.deadline == pytest.approx(expected)


def test_same_seed_reproduces_workload():
    a = [
        (s.arrival, tuple(s.steps)) for s in make_generator(seed=3).generate(20)
    ]
    b = [
        (s.arrival, tuple(s.steps)) for s in make_generator(seed=3).generate(20)
    ]
    assert a == b


def test_class_mix_weights():
    short = make_class(name="short", num_steps=4, weight=0.9)
    long = make_class(name="long", num_steps=32, weight=0.1)
    generator = make_generator(classes=[short, long])
    specs = list(generator.generate(3000))
    long_fraction = np.mean([s.txn_class.name == "long" for s in specs])
    assert long_fraction == pytest.approx(0.1, abs=0.02)


def test_class_mix_does_not_perturb_arrivals():
    one = make_generator(seed=5)
    two = make_generator(
        seed=5,
        classes=[make_class(name="a", weight=0.5), make_class(name="b", weight=0.5)],
    )
    a = [s.arrival for s in one.generate(50)]
    b = [s.arrival for s in two.generate(50)]
    assert a == pytest.approx(b)


def test_invalid_configurations_rejected():
    with pytest.raises(ConfigurationError):
        make_generator(rate=0.0)
    with pytest.raises(ConfigurationError):
        TransactionGenerator(
            classes=[],
            num_pages=10,
            step_duration=0.01,
            streams=RandomStreams(1),
            arrivals=PoissonArrivals(1.0),
        )
    with pytest.raises(ConfigurationError):
        # class accesses more pages than the database holds
        TransactionGenerator(
            classes=[make_class(num_steps=20)],
            num_pages=10,
            step_duration=0.01,
            streams=RandomStreams(1),
            arrivals=PoissonArrivals(1.0),
        )


class TestFixedWorkload:
    def test_builds_specs_in_order(self):
        specs = fixed_workload(
            programs=[[R(0), W(1)], [R(1)]],
            arrivals=[0.0, 0.5],
            txn_class=make_class(num_steps=2),
            step_duration=1.0,
        )
        assert [s.txn_id for s in specs] == [0, 1]
        assert specs[1].arrival == 0.5
        assert specs[0].write_pages == {1}

    def test_explicit_deadlines(self):
        specs = fixed_workload(
            programs=[[R(0)], [R(1)]],
            arrivals=[0.0, 0.0],
            txn_class=make_class(num_steps=1),
            step_duration=1.0,
            deadlines=[5.0, None],
        )
        assert specs[0].deadline == 5.0
        assert specs[1].deadline == pytest.approx(2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            fixed_workload(
                programs=[[R(0)]],
                arrivals=[0.0, 1.0],
                txn_class=make_class(num_steps=1),
                step_duration=1.0,
            )
