"""CSMA/CD contention modelling (optional Ethernet mode)."""

import pytest

from repro.des import Environment, RandomStream
from repro.simnet import Address, Datagram, Ethernet, Host


def build(contention):
    env = Environment()
    ether = Ethernet(env, contention=contention,
                     contention_stream=RandomStream(9) if contention
                     else None)
    a = Host(env, "a")
    b = Host(env, "b")
    a.attach(ether)
    b.attach(ether)
    b.bind(5, buffer_packets=1000)
    return env, ether


def burst(env, ether, count, senders=("a",)):
    for index in range(count):
        src = senders[index % len(senders)]
        ether.transmit_op(
            Datagram(Address(src, 1), Address("b", 5), 1400))
    env.run()
    return env.now


def test_contention_requires_stream():
    env = Environment()
    with pytest.raises(ValueError):
        Ethernet(env, contention=True)


def test_uncontended_frame_pays_no_penalty():
    env, ether = build(contention=True)
    elapsed = burst(env, ether, 1)
    assert elapsed == pytest.approx(ether.transmission_time(1400), rel=0.01)


def test_single_station_burst_never_collides():
    # A lone station streaming back-to-back frames pays no backoff.
    env_ideal, ether_ideal = build(contention=False)
    ideal = burst(env_ideal, ether_ideal, 50)
    env_real, ether_real = build(contention=True)
    real = burst(env_real, ether_real, 50)
    assert real == pytest.approx(ideal)


def test_two_station_burst_is_slower_than_ideal():
    env_ideal, ether_ideal = build(contention=False)
    ideal = burst(env_ideal, ether_ideal, 50, senders=("a", "b"))
    env_real, ether_real = build(contention=True)
    real = burst(env_real, ether_real, 50, senders=("a", "b"))
    assert real > ideal
    # ...but with 1.4 KB frames the CSMA/CD overhead is modest (<25 %).
    assert real < 1.25 * ideal


def test_penalty_zero_when_nothing_waits():
    env, ether = build(contention=True)
    assert ether.contention_penalty("a") == 0.0


def test_testbed_contention_flag():
    from repro.prototype import PrototypeTestbed
    MB = 1 << 20
    plain = PrototypeTestbed(seed=31)
    plain.prepare_object("o", MB)
    with_contention = PrototypeTestbed(seed=31, ethernet_contention=True)
    with_contention.prepare_object("o", MB)
    rate_plain = plain.measure_read("o", MB)
    rate_contended = with_contention.measure_read("o", MB)
    assert rate_contended <= rate_plain
    assert rate_contended > 0.85 * rate_plain
