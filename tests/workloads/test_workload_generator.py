"""The composed generator: stream independence and seed-compat guarantees.

Two properties anchor the subsystem:

1. *Stream independence* — each axis owns its named random stream, so
   swapping the access pattern (or deadline policy, or class mix) leaves
   the arrival-time sequence bit-identical.
2. *Scalar compatibility* — the generator draws one axis at a time, yet
   reproduces the per-transaction algorithm (:func:`reference_specs`)
   spec-for-spec under the same seed on every axis and every registered
   scenario, so every earlier result stays reproducible.  The reference
   draws from numpy Generators seeded as :class:`RandomStreams` seeds its
   streams (:class:`NumpyStreams`), so numpy is an independent oracle for
   the pure-Python streams the builder draws from.
"""

import numpy as np
import pytest

from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.txn.spec import Step
from repro.workloads import (
    FixedOffsetDeadlines,
    MMPPArrivals,
    PartitionedAccess,
    PoissonArrivals,
    SlackDeadlines,
    TransactionGenerator,
    UniformAccess,
    WorkloadSpec,
    ZipfianAccess,
    deadline_policy_from_dict,
)
from repro.workloads.scenarios import available_scenarios, get_scenario
from tests.conftest import make_class

SEED = 42


class NumpyStreams:
    """numpy's ``Generator(PCG64(SeedSequence([seed, *map(ord, name)])))``
    per name: the streams :class:`RandomStreams` reproduces."""

    def __init__(self, seed):
        self._seed = seed
        self._streams = {}

    def __getitem__(self, name):
        if name not in self._streams:
            entropy = [self._seed, *map(ord, name)]
            self._streams[name] = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._streams[name]

    def spawn(self, index):
        return NumpyStreams(self._seed * 1_000_003 + index + 1)


def reference_specs(count, classes, num_pages, rate, step, streams,
                    workload=WorkloadSpec()):
    """The per-transaction algorithm, reimplemented against numpy streams.

    For each transaction: one ``next_arrival``, a scalar class
    ``choice``, then the pages followed by the write coin-flips.
    Partitioned access draws the coin-flips first, then the write-region
    and the read-region pages.
    """
    arrivals = workload.arrivals.build(rate)
    access = workload.access
    weights = np.array([c.weight for c in classes], dtype=float)
    probs = weights / weights.sum()
    out = []
    for txn_id in range(count):
        arrival = arrivals.next_arrival(streams["arrivals"])
        if len(classes) == 1:
            cls = classes[0]
        else:
            cls = classes[int(streams["classes"].choice(len(classes), p=probs))]
        size = cls.num_steps
        if isinstance(access, PartitionedAccess):
            flags = streams["writes"].random(size) < cls.write_probability
            split = access.split(num_pages)
            writes = int(flags.sum())
            write_pages = iter(
                streams["pages"].choice(split, size=writes, replace=False)
            )
            read_pages = iter(split + streams["pages"].choice(
                num_pages - split, size=size - writes, replace=False
            ))
            pages = [next(write_pages) if f else next(read_pages) for f in flags]
        else:
            # Uniform access has no probability vector: choice(p=None).
            page_probs = getattr(access, "probabilities", lambda n: None)(num_pages)
            pages = streams["pages"].choice(
                num_pages, size=size, replace=False, p=page_probs
            )
            flags = streams["writes"].random(size) < cls.write_probability
        steps = tuple(Step(int(page), bool(flag)) for page, flag in zip(pages, flags))
        estimated = size * step
        deadline = workload.deadlines.deadline_for(arrival, estimated, cls)
        if deadline is None:
            deadline = arrival + cls.slack_factor * estimated
        out.append((txn_id, arrival, steps, deadline, estimated, cls))
    return out


def as_tuples(specs):
    return [
        (s.txn_id, s.arrival, s.steps, s.deadline, s.estimated_duration,
         s.txn_class)
        for s in specs
    ]


def make_generator(arrivals=None, access=None, deadlines=None, classes=None,
                   seed=SEED, num_pages=500):
    return TransactionGenerator(
        classes=classes or [make_class(num_steps=16)],
        num_pages=num_pages,
        step_duration=0.008,
        streams=RandomStreams(seed),
        arrivals=arrivals or PoissonArrivals(80.0),
        access=access,
        deadlines=deadlines,
    )


class TestStreamIndependence:
    def test_access_swap_leaves_arrivals_bit_identical(self):
        uniform = make_generator(access=UniformAccess())
        zipfian = make_generator(access=ZipfianAccess(theta=0.95))
        a = [s.arrival for s in uniform.generate(200)]
        b = [s.arrival for s in zipfian.generate(200)]
        assert a == b  # exact equality, not approx — same stream, same draws

    def test_deadline_swap_leaves_arrivals_and_pages_bit_identical(self):
        slack = make_generator(deadlines=SlackDeadlines())
        fixed = make_generator(deadlines=FixedOffsetDeadlines(offset=0.4))
        for a, b in zip(slack.generate(100), fixed.generate(100)):
            assert a.arrival == b.arrival
            assert a.steps == b.steps
            assert b.deadline == pytest.approx(b.arrival + 0.4)

    def test_class_mix_swap_leaves_arrivals_bit_identical(self):
        one = make_generator()
        two = make_generator(
            classes=[
                make_class(name="a", weight=0.5),
                make_class(name="b", weight=0.5),
            ]
        )
        a = [s.arrival for s in one.generate(100)]
        b = [s.arrival for s in two.generate(100)]
        assert a == b

    def test_arrival_swap_leaves_pages_bit_identical(self):
        poisson = make_generator(arrivals=PoissonArrivals(80.0))
        mmpp = make_generator(arrivals=MMPPArrivals(80.0))
        a = [s.steps for s in poisson.generate(100)]
        b = [s.steps for s in mmpp.generate(100)]
        assert a == b


class TestSeedCompatibility:
    """Every workload equals the per-transaction algorithm spec-for-spec."""

    @pytest.mark.parametrize("num_classes", [1, 2])
    def test_default_axes_match_seed_algorithm(self, num_classes):
        classes = [make_class(num_steps=16)]
        if num_classes == 2:
            classes = [
                make_class(name="long", num_steps=24, weight=0.2),
                make_class(name="short", num_steps=8, weight=0.8),
            ]
        generator = make_generator(classes=classes)
        expected = reference_specs(
            60, classes, num_pages=500, rate=80.0, step=0.008,
            streams=NumpyStreams(SEED),
        )
        assert as_tuples(generator.generate(60)) == expected

    @pytest.mark.parametrize("rate", [10.0, 200.0])
    @pytest.mark.parametrize("replication", [0, 1])
    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_every_scenario_matches_the_scalar_reference(
        self, scenario, replication, rate
    ):
        config = get_scenario(scenario).to_config(
            num_transactions=300, warmup_commits=0
        )
        streams = RandomStreams(config.seed).spawn(replication)
        tensors = WorkloadTensors.from_config(config, rate, streams)
        expected = reference_specs(
            300, list(config.classes), config.num_pages, rate,
            config.step_duration, NumpyStreams(config.seed).spawn(replication),
            config.workload,
        )
        assert len(tensors) == 300
        for got, want in zip(as_tuples(tensors), expected):
            assert got == want, f"transaction {got[0]}"

    def test_default_workload_spec_is_the_baseline(self):
        spec = WorkloadSpec()
        assert isinstance(spec.arrivals.build(50.0), PoissonArrivals)
        assert spec.access == UniformAccess()
        assert spec.deadlines == SlackDeadlines()

    def test_workload_spec_dict_round_trip(self):
        spec = WorkloadSpec(
            access=ZipfianAccess(theta=0.9),
            deadlines=FixedOffsetDeadlines(offset=0.3),
        )
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_workload_spec_rejects_typoed_axis_keys(self):
        with pytest.raises(ConfigurationError, match="unknown workload keys"):
            WorkloadSpec.from_dict({"arrivials": {"kind": "mmpp"}})


class TestDeadlinePolicies:
    def test_class_slack_is_the_default(self):
        spec = make_generator().generate(1)[0]
        assert spec.deadline == pytest.approx(
            spec.arrival + 2.0 * 16 * 0.008
        )

    def test_slack_override_applies_to_every_class(self):
        generator = make_generator(deadlines=SlackDeadlines(factor=3.0))
        spec = generator.generate(1)[0]
        assert spec.deadline == pytest.approx(spec.arrival + 3.0 * 16 * 0.008)

    def test_fixed_offset(self):
        generator = make_generator(deadlines=FixedOffsetDeadlines(offset=0.7))
        spec = generator.generate(1)[0]
        assert spec.deadline == pytest.approx(spec.arrival + 0.7)

    def test_dict_round_trip(self):
        for policy in (
            SlackDeadlines(),
            SlackDeadlines(factor=1.5),
            FixedOffsetDeadlines(offset=0.3),
        ):
            assert deadline_policy_from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlackDeadlines(factor=0.5)
        with pytest.raises(ConfigurationError):
            FixedOffsetDeadlines(offset=0.0)
        with pytest.raises(ConfigurationError, match="unknown deadline kind"):
            deadline_policy_from_dict({"kind": "astrological"})


class TestValidation:
    def test_empty_classes_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionGenerator(
                classes=[],
                num_pages=100,
                step_duration=0.008,
                streams=RandomStreams(1),
                arrivals=PoissonArrivals(10.0),
            )

    def test_access_pattern_validated_against_classes(self):
        with pytest.raises(ConfigurationError):
            make_generator(classes=[make_class(num_steps=600)], num_pages=500)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            make_generator().generate(-1)
