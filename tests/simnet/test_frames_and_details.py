"""Datagram validation, interface backlog, medium occupancy details."""

import pytest

from repro.des import Environment, RandomStream
from repro.simnet import (
    Address,
    CostModel,
    Datagram,
    Ethernet,
    HEADER_SIZE,
    Host,
    Network,
    TokenRing,
)


def test_datagram_smaller_than_header_rejected():
    with pytest.raises(ValueError):
        Datagram(Address("a", 1), Address("b", 2), size=HEADER_SIZE - 1)


def test_datagrams_compare_by_identity():
    a = Datagram(Address("a", 1), Address("b", 2), size=100)
    b = Datagram(Address("a", 1), Address("b", 2), size=100)
    assert a != b
    assert a == a


def test_address_str():
    assert str(Address("host", 42)) == "host:42"


def test_datagram_repr_mentions_kind():
    datagram = Datagram(Address("a", 1), Address("b", 2), size=100,
                        message={"k": 1})
    assert "dict" in repr(datagram)


def test_interface_backlog_visible():
    env = Environment()
    net = Network(env)
    net.add_ethernet("lan")
    a = net.add_host("a")
    net.add_host("b").attach(net.medium("lan"))
    iface = a.attach(net.medium("lan"), tx_queue_packets=50)
    sock = a.bind(1)
    net.host("b").bind(9, buffer_packets=100)

    def sender(env):
        for _ in range(10):
            yield sock.send_op(Address("b", 9), payload_size=8000)

    env.process(sender(env))
    # Before the wire drains anything, most datagrams sit in the queue.
    while env.peek() < 0.001:
        env.step()
    assert iface.tx_backlog > 0
    env.run()
    assert iface.tx_backlog == 0


def test_occupy_blocks_transmissions():
    env = Environment()
    ether = Ethernet(env)
    a = Host(env, "a")
    b = Host(env, "b")
    a.attach(ether)
    b.attach(ether)
    b.bind(9)
    received = []

    def hog(env):
        yield from ether.occupy(1.0)

    def sender(env):
        yield env.timeout(0.001)
        yield ether.transmit_op(
            Datagram(Address("a", 1), Address("b", 9), 100))
        received.append(env.now)

    env.process(hog(env))
    env.process(sender(env))
    env.run()
    assert received[0] >= 1.0


def test_token_ring_rejects_bad_params():
    env = Environment()
    with pytest.raises(ValueError):
        TokenRing(env, bits_per_second=0)
    with pytest.raises(ValueError):
        TokenRing(env, token_rotation_s=-1)
    ring = TokenRing(env)
    with pytest.raises(ValueError):
        ring.transmission_time(0)


def test_host_noise_requires_stream():
    env = Environment()
    with pytest.raises(ValueError):
        Host(env, "h", noise_fraction=0.1)
    with pytest.raises(ValueError):
        Host(env, "h", noise_fraction=1.5, noise_stream=RandomStream(1))


def test_jitter_bounded():
    env = Environment()
    host = Host(env, "h", send_cost=CostModel(per_packet_s=1.0),
                noise_fraction=0.1, noise_stream=RandomStream(4))
    host.attach(Ethernet(env))
    sock = host.bind(1)
    previous = host.cpu.free_at
    for _ in range(200):
        sock.send_op(Address("h", 1))
        charge = host.cpu.free_at - previous
        previous = host.cpu.free_at
        # A 1 s send cost, jittered: speed factor within +-5%,
        # per-packet jitter +-10%.
        assert 0.84 <= charge <= 1.16


def test_send_payload_validation():
    env = Environment()
    net = Network(env)
    net.add_ethernet("lan")
    a = net.add_host("a")
    net.connect("a", "lan")
    sock = a.bind(1)
    with pytest.raises(ValueError):
        sock.send_op(Address("b", 9), payload_size=-1)


def test_interface_scale_validation():
    env = Environment()
    ether = Ethernet(env)
    host = Host(env, "h")
    with pytest.raises(ValueError):
        host.attach(ether, cpu_cost_scale=0)
    with pytest.raises(ValueError):
        host.attach(ether, tx_queue_packets=0)


def test_socket_buffer_validation():
    env = Environment()
    host = Host(env, "h")
    with pytest.raises(ValueError):
        host.bind(1, buffer_packets=0)


def test_cost_model_zero_default():
    assert CostModel().time(10_000) == 0.0
