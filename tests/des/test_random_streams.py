"""Seeded random stream behaviour."""

import math

import pytest

from repro.des import RandomStream, StreamFactory


def test_same_seed_same_sequence():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.exponential(1.0) for _ in range(10)] == \
           [b.exponential(1.0) for _ in range(10)]


def test_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.uniform(0, 1) for _ in range(5)] != \
           [b.uniform(0, 1) for _ in range(5)]


def test_exponential_mean_converges():
    stream = RandomStream(7)
    draws = [stream.exponential(16.0) for _ in range(20000)]
    assert math.fsum(draws) / len(draws) == pytest.approx(16.0, rel=0.05)


def test_exponential_rejects_nonpositive_mean():
    stream = RandomStream(0)
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_uniform_mean_is_paper_seek_model():
    # §5.1 models seek as uniform with a given average: range [0, 2*mean].
    stream = RandomStream(3)
    draws = [stream.uniform_mean(16.0) for _ in range(20000)]
    assert all(0.0 <= d <= 32.0 for d in draws)
    assert math.fsum(draws) / len(draws) == pytest.approx(16.0, rel=0.05)


def test_uniform_mean_rejects_negative():
    stream = RandomStream(0)
    with pytest.raises(ValueError):
        stream.uniform_mean(-1.0)


def test_bernoulli_extremes():
    stream = RandomStream(5)
    assert not any(stream.bernoulli(0.0) for _ in range(100))
    assert all(stream.bernoulli(1.0) for _ in range(100))


def test_bernoulli_rejects_out_of_range():
    stream = RandomStream(0)
    with pytest.raises(ValueError):
        stream.bernoulli(1.5)


def test_uniform_rejects_empty_interval():
    stream = RandomStream(0)
    with pytest.raises(ValueError):
        stream.uniform(2.0, 1.0)


def test_factory_streams_are_independent_of_creation_order():
    factory_a = StreamFactory(99)
    factory_b = StreamFactory(99)
    # Create in different orders; the named streams must still agree.
    a_net = factory_a.stream("net")
    factory_a.stream("disk")
    factory_b.stream("disk")
    b_net = factory_b.stream("net")
    assert [a_net.uniform(0, 1) for _ in range(5)] == \
           [b_net.uniform(0, 1) for _ in range(5)]


def test_factory_caches_streams():
    factory = StreamFactory(1)
    assert factory.stream("x") is factory.stream("x")
    assert "x" in factory


def test_factory_master_seed_changes_streams():
    a = StreamFactory(1).stream("net")
    b = StreamFactory(2).stream("net")
    assert [a.uniform(0, 1) for _ in range(5)] != \
           [b.uniform(0, 1) for _ in range(5)]


def test_shuffled_preserves_multiset():
    stream = RandomStream(11)
    items = list(range(20))
    shuffled = stream.shuffled(items)
    assert sorted(shuffled) == items
    assert items == list(range(20))  # original untouched


# -- block sampling -----------------------------------------------------------
#
# The float distributions serve from a buffered block of raw uniforms
# (see the module docstring of repro.des.random_streams).  The contract:
# the draw sequence is bit-identical to the per-sample random.Random
# reference, for every distribution, at every block size — including the
# refill-boundary sizes 1, block-1, block and block+1 — and mixing in a
# getrandbits-based method degrades the stream to exactly the state a
# per-sample run would occupy.

import random

from repro.des.random_streams import DEFAULT_BLOCK_SIZE

BOUNDARY_SIZES = [1, DEFAULT_BLOCK_SIZE - 1, DEFAULT_BLOCK_SIZE,
                  DEFAULT_BLOCK_SIZE + 1]

REFERENCE_DRAWS = {
    "exponential": lambda rng: rng.expovariate(1.0 / 3.0),
    "uniform": lambda rng: rng.uniform(2.0, 5.0),
    "uniform_mean": lambda rng: rng.uniform(0.0, 2.0 * 4.5),
    "bernoulli": lambda rng: rng.random() < 0.3,
}

STREAM_DRAWS = {
    "exponential": lambda s: s.exponential(3.0),
    "uniform": lambda s: s.uniform(2.0, 5.0),
    "uniform_mean": lambda s: s.uniform_mean(4.5),
    "bernoulli": lambda s: s.bernoulli(0.3),
}


@pytest.mark.parametrize("name", sorted(STREAM_DRAWS))
@pytest.mark.parametrize("block_size", BOUNDARY_SIZES)
def test_block_sampling_matches_per_sample_reference(name, block_size):
    count = 2 * DEFAULT_BLOCK_SIZE + 3  # always crosses a refill boundary
    stream = RandomStream(1234, block_size=block_size)
    reference = random.Random(1234)
    draw, ref = STREAM_DRAWS[name], REFERENCE_DRAWS[name]
    assert [draw(stream) for _ in range(count)] == \
           [ref(reference) for _ in range(count)]


@pytest.mark.parametrize("block_size", BOUNDARY_SIZES)
def test_mixed_float_sequence_matches_reference(block_size):
    stream = RandomStream(77, block_size=block_size)
    reference = random.Random(77)
    names = sorted(STREAM_DRAWS)
    count = 3 * DEFAULT_BLOCK_SIZE + 1
    got = [STREAM_DRAWS[names[i % 4]](stream) for i in range(count)]
    want = [REFERENCE_DRAWS[names[i % 4]](reference) for i in range(count)]
    assert got == want


@pytest.mark.parametrize("floats_before", [0, 1, 10, DEFAULT_BLOCK_SIZE,
                                           DEFAULT_BLOCK_SIZE + 5])
def test_degrade_replays_exactly_the_served_draws(floats_before):
    # After any number of buffered float draws, a getrandbits-based call
    # must see the core exactly where a per-sample run would have it —
    # the unserved read-ahead is discarded, the served draws are replayed.
    stream = RandomStream(9, block_size=DEFAULT_BLOCK_SIZE)
    reference = random.Random(9)
    for _ in range(floats_before):
        assert stream.exponential(2.0) == reference.expovariate(0.5)
    assert stream.randint(0, 10**9) == reference.randint(0, 10**9)
    # Degraded mode keeps matching, floats included.
    assert stream.choice(range(1000)) == reference.choice(range(1000))
    assert [stream.uniform(0, 1) for _ in range(10)] == \
           [reference.uniform(0, 1) for _ in range(10)]
    assert stream.shuffled(range(30)) == \
           (lambda items: (reference.shuffle(items), items)[1])(list(range(30)))


def test_degraded_stream_stays_degraded():
    stream = RandomStream(5)
    stream.exponential(1.0)
    stream.randint(0, 3)
    reference = random.Random(5)
    reference.expovariate(1.0)
    reference.randint(0, 3)
    # No buffering after degrade: long float runs still match per-sample.
    assert [stream.exponential(1.0) for _ in range(600)] == \
           [reference.expovariate(1.0) for _ in range(600)]


def test_factory_propagates_block_size():
    factory = StreamFactory(1, block_size=3)
    assert factory.stream("x")._block_size == 3


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        RandomStream(0, block_size=0)


def test_observer_fires_per_draw_not_per_refill():
    stream = RandomStream(8, block_size=4)
    seen = []
    stream.observer = seen.append
    for _ in range(10):
        stream.uniform_mean(1.0)
    assert seen == [stream] * 10
