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


# -- block sampling -----------------------------------------------------------
#
# The float distributions serve from a buffered block of BLOCK_SIZE raw
# uniforms (see the module docstring of repro.des.random_streams).  The
# contract: the draw sequence is bit-identical to the per-sample
# random.Random reference, for every distribution, over draw counts that
# end just inside, on and just past a refill boundary.

import random

from repro.des.random_streams import BLOCK_SIZE

BOUNDARY_COUNTS = [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1]

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
@pytest.mark.parametrize("boundary", BOUNDARY_COUNTS)
def test_block_sampling_matches_per_sample_reference(name, boundary):
    # Two full blocks, then ``boundary`` more draws: the run ends one
    # draw into a block, one short of its end, at its end or one past.
    count = 2 * BLOCK_SIZE + boundary
    stream = RandomStream(1234)
    reference = random.Random(1234)
    draw, ref = STREAM_DRAWS[name], REFERENCE_DRAWS[name]
    assert [draw(stream) for _ in range(count)] == \
           [ref(reference) for _ in range(count)]


@pytest.mark.parametrize("boundary", BOUNDARY_COUNTS)
def test_mixed_float_sequence_matches_reference(boundary):
    stream = RandomStream(77)
    reference = random.Random(77)
    names = sorted(STREAM_DRAWS)
    count = 2 * BLOCK_SIZE + boundary
    got = [STREAM_DRAWS[names[i % 4]](stream) for i in range(count)]
    want = [REFERENCE_DRAWS[names[i % 4]](reference) for i in range(count)]
    assert got == want


def test_observer_fires_per_draw_not_per_refill():
    stream = RandomStream(8)
    seen = []
    stream.observer = seen.append
    count = BLOCK_SIZE + 10  # crosses a refill
    for _ in range(count):
        stream.uniform_mean(1.0)
    assert seen == [stream] * count
