"""Named random streams: independence, and bit-identity with numpy.

Each stream is a pure-Python PCG64 generator that must draw exactly what
``numpy.random.Generator(PCG64(SeedSequence([seed, *map(ord, name)])))``
draws for the calls the simulator makes.  The differential tests hold it
to the installed numpy call by call, state included; the known-answer
vectors pin the streams themselves, so they stay put even if a later
numpy release changes its own.
"""

import random

import numpy as np
import pytest

from repro.engine import rng as rng_module
from repro.engine.rng import PCG64Stream, RandomStreams, pairwise_sum


def test_same_seed_same_stream():
    a = RandomStreams(7)["arrivals"].random(5)
    b = RandomStreams(7)["arrivals"].random(5)
    assert np.allclose(a, b)


def test_different_names_are_independent():
    streams = RandomStreams(7)
    a = streams["arrivals"].random(5)
    b = streams["pages"].random(5)
    assert not np.allclose(a, b)


def test_access_order_does_not_matter():
    one = RandomStreams(7)
    _ = one["pages"].random(3)
    a = one["arrivals"].random(5)
    two = RandomStreams(7)
    b = two["arrivals"].random(5)
    assert np.allclose(a, b)


def test_consuming_one_stream_leaves_others_untouched():
    one = RandomStreams(7)
    _ = one["noise"].random(1000)
    a = one["arrivals"].random(5)
    b = RandomStreams(7)["arrivals"].random(5)
    assert np.allclose(a, b)


def test_spawn_children_differ_from_parent_and_each_other():
    root = RandomStreams(7)
    c0 = root.spawn(0)["arrivals"].random(5)
    c1 = root.spawn(1)["arrivals"].random(5)
    parent = root["arrivals"].random(5)
    assert not np.allclose(c0, c1)
    assert not np.allclose(c0, parent)


def test_spawn_is_reproducible():
    a = RandomStreams(7).spawn(3)["x"].random(4)
    b = RandomStreams(7).spawn(3)["x"].random(4)
    assert np.allclose(a, b)


def test_spawn_negative_rejected():
    with pytest.raises(ValueError):
        RandomStreams(7).spawn(-1)


def test_non_integer_seed_rejected():
    with pytest.raises(TypeError):
        RandomStreams("seed")  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        RandomStreams(7.0)  # type: ignore[arg-type]


def test_negative_seed_raises_value_error_like_numpy():
    # A naive 32-bit split of a negative int never terminates.
    with pytest.raises(ValueError):
        RandomStreams(-1)["arrivals"]
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, *map(ord, "arrivals")])


def test_numpy_integer_seed_is_accepted():
    assert RandomStreams(np.int64(7))["x"].random(3) == RandomStreams(7)["x"].random(3)


# ----------------------------------------------------------------------
# differential tests against the installed numpy
# ----------------------------------------------------------------------

SEEDS = [0, 7, 1995, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**70 + 3]


def pair(seed, name="pages"):
    """Our stream and numpy's Generator from the same entropy."""
    entropy = [seed, *map(ord, name)]
    numpy_stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return PCG64Stream(entropy), numpy_stream


def as_python(value):
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def assert_same(ours, theirs, call):
    """Equal draws of the same Python type, then equal generator state."""
    got, want = call(ours), as_python(call(theirs))
    assert type(got) is type(want)
    assert got == want
    assert ours.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["arrivals", "pages", ""])
def test_seeding_matches_numpy(seed, name):
    ours, theirs = pair(seed, name)
    assert ours.state == theirs.bit_generator.state
    assert RandomStreams(seed)[name].state == ours.state


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scalar_and_sized_match_numpy(seed):
    ours, theirs = pair(seed)
    for size in (None, 0, 1, 7, 300, None):
        assert_same(ours, theirs, lambda g: g.random(size))


def test_exponential_reaches_every_layer_the_wedge_and_the_tail(monkeypatch):
    tails = []
    original = PCG64Stream._exponential_tail

    def recording(self, idx, x):
        tails.append(idx)
        return original(self, idx, x)

    monkeypatch.setattr(PCG64Stream, "_exponential_tail", recording)
    ours, theirs = pair(11, "arrivals")
    count = 150_000
    assert ours.exponential(1 / 70, size=count) == theirs.exponential(
        1 / 70, size=count
    ).tolist()
    for _ in range(2000):
        assert ours.exponential(0.25) == theirs.exponential(0.25)
    assert ours.state == theirs.bit_generator.state
    # Every layer's strip was drawn from, the wedge test ran in most
    # layers, and the base strip's tail (idx 0) was taken.
    raw = pair(11, "arrivals")[1].bit_generator.random_raw(count)
    assert set(((raw >> 3) & 0xFF).tolist()) == set(range(256))
    assert 0 in tails
    assert len(set(tails) - {0}) > 200


@pytest.mark.parametrize(
    "pop, size",
    [
        (1000, 16),  # Floyd's algorithm, the paper's page pick
        (5, 5),  # a bound of 0 draws nothing
        (1, 0),
        (2**31, 20),
        (3 * 2**30, 40),  # Lemire rejects about a quarter of the draws
        (2**32 - 5, 30),  # bounds just under 2**32
        (2**32 + 1, 3),  # bounds of 2**32 - 1 (one raw 32-bit draw) and 2**32
        (2**40, 10),  # 64-bit Lemire
        (20_000, 1000),  # numpy's tail shuffle (pop > 10000, size > pop // 50)
        (12_000, 12_000),
        (20_000, 400),  # Floyd again: size == pop // 50
    ],
)
def test_choice_without_p_matches_numpy(pop, size):
    ours, theirs = pair(1995)
    for _ in range(3):
        assert_same(ours, theirs, lambda g: g.choice(pop, size=size, replace=False))


def _zipf(n, theta, zero_every=0):
    weights = [(rank + 1) ** -theta for rank in range(n)]
    if zero_every:
        weights = [0.0 if i % zero_every == 1 else w for i, w in enumerate(weights)]
    total = pairwise_sum(weights)
    return tuple(w / total for w in weights)


@pytest.mark.parametrize("replace", [True, False])
@pytest.mark.parametrize(
    "p",
    [_zipf(1000, 0.8), _zipf(200, 0.95, zero_every=3), _zipf(20, 3.0), (0.2, 0.8)],
    ids=["zipf-1000", "zipf-with-zeros", "steep-redraws", "two-classes"],
)
def test_choice_with_p_matches_numpy(p, replace):
    ours, theirs = pair(42)
    size = 2 if len(p) == 2 and not replace else 12
    for _ in range(20):
        assert_same(
            ours, theirs, lambda g: g.choice(len(p), size=size, replace=replace, p=p)
        )
    assert_same(ours, theirs, lambda g: g.choice(len(p), p=p))


def test_mixed_32_and_64_bit_draws_share_one_buffer():
    # An odd number of 32-bit draws leaves half an output buffered;
    # 64-bit draws in between leave it alone, as in numpy.
    ours, theirs = pair(2**66 + 5)
    rnd = random.Random(3)
    calls = [
        lambda g: g.choice(1000, size=3, replace=False),
        lambda g: g.random(),
        lambda g: g.exponential(2.0),
        lambda g: g.choice(7, size=1, replace=False),
        lambda g: g.random(5),
        lambda g: g.choice(50, size=4, replace=False, p=_zipf(50, 1.1)),
        lambda g: g.exponential(0.5, size=9),
    ]
    for _ in range(400):
        assert_same(ours, theirs, rnd.choice(calls))


def test_randomized_calls_match_numpy():
    rnd = random.Random(29)
    zipf = _zipf(300, 0.8)
    for _ in range(40):
        ours, theirs = pair(rnd.randrange(2**70), rnd.choice(["arrivals", "pages"]))
        for _ in range(25):
            kind = rnd.randrange(5)
            if kind == 0:
                n = rnd.randrange(40)
                call = lambda g: g.random(n)
            elif kind == 1:
                n = rnd.randrange(40)
                call = lambda g: g.exponential(1 / 70, size=n)
            elif kind == 2:
                n = rnd.randrange(17)
                call = lambda g: g.choice(300, size=n, replace=False)
            elif kind == 3:
                n = rnd.randrange(17)
                call = lambda g: g.choice(300, size=n, replace=False, p=zipf)
            else:
                call = lambda g: g.exponential(3.0)
            assert_same(ours, theirs, call)


def test_choice_rejects_what_numpy_rejects():
    stream = RandomStreams(1)["pages"]
    with pytest.raises(ValueError):
        stream.choice(5, size=6, replace=False)
    with pytest.raises(ValueError):
        stream.choice(3, size=3, replace=False, p=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        stream.choice(3, size=2, p=(0.5, 0.5))
    with pytest.raises(ValueError):
        stream.choice(2, size=2, p=(0.7, 0.7))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 1000, 8193])
def test_pairwise_sum_matches_ndarray_sum(n):
    rnd = random.Random(n)
    values = [rnd.random() * 10 ** rnd.randrange(-6, 6) for _ in range(n)]
    assert pairwise_sum(values) == float(np.array(values, dtype=float).sum())


# ----------------------------------------------------------------------
# known answers: the streams themselves, independent of numpy
# ----------------------------------------------------------------------


def test_known_answer_vectors():
    streams = RandomStreams(1995)
    arrivals = streams["arrivals"]
    assert [x.hex() for x in arrivals.random(3)] == [
        "0x1.86c7ee196dc9cp-3",
        "0x1.6981e42952350p-5",
        "0x1.3432fa905a292p-1",
    ]
    assert [x.hex() for x in arrivals.exponential(1 / 70, size=3)] == [
        "0x1.7852a4b1d5377p-9",
        "0x1.e452f0e471338p-8",
        "0x1.92ac03fd73466p-6",
    ]
    pages = streams["pages"]
    assert pages.choice(1000, size=16, replace=False) == [
        34, 89, 113, 682, 176, 170, 107, 235, 823, 879, 354, 645, 518, 668, 832, 419,
    ]
    assert pages.choice(50, size=8, replace=False, p=_zipf(50, 0.8)) == [
        5, 15, 8, 4, 17, 0, 20, 44,
    ]
    assert pages.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 209391079103076597461211500511358073084,
            "inc": 158335713835763365904566935078760133115,
        },
        "has_uint32": 1,
        "uinteger": 1704736383,
    }
    assert streams.spawn(2)["classes"].choice(2, size=12, p=(0.25, 0.75)) == [
        1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0,
    ]


def test_ziggurat_tables_decode_to_numpy_layout():
    ke, we, fe = rng_module._ziggurat()
    assert len(ke) == len(we) == len(fe) == 256
    assert fe[0] == 1.0
    assert all(a > b for a, b in zip(fe, fe[1:]))
