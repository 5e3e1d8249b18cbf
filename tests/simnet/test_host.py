"""Host CPU accounting, interfaces, sockets."""

import pytest

from repro.des import Environment
from repro.simnet import (
    Address,
    CostModel,
    Host,
    Network,
    mips_cost_model,
)


def make_pair(send_cost=CostModel(), recv_cost=CostModel(), **connect_kwargs):
    env = Environment()
    net = Network(env)
    net.add_ethernet("lan")
    net.add_host("a", send_cost=send_cost, recv_cost=recv_cost)
    net.add_host("b", send_cost=send_cost, recv_cost=recv_cost)
    net.connect("a", "lan", **connect_kwargs)
    net.connect("b", "lan", **connect_kwargs)
    return env, net


def test_cost_model_time():
    cost = CostModel(per_packet_s=0.001, per_byte_s=1e-6)
    assert cost.time(1000) == pytest.approx(0.002)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(per_packet_s=-1)


def test_mips_cost_model_is_paper_formula():
    # 100 MIPS, 1500 instructions + 1/byte: an 8 KB packet costs
    # (1500 + 8192) / 100e6 seconds = 96.92 microseconds.
    cost = mips_cost_model(100.0)
    assert cost.time(8192) == pytest.approx(9.692e-5)


def test_mips_model_validation():
    with pytest.raises(ValueError):
        mips_cost_model(0)


def test_send_and_receive_datagram():
    env, net = make_pair()
    received = []
    b_sock = net.host("b").bind(9)

    def sender(env):
        a_sock = net.host("a").bind(100)
        yield a_sock.send_op(Address("b", 9), message=b"hello",
                             payload_size=5)

    def receiver(env):
        datagram = yield b_sock.recv()
        received.append(datagram.message)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert received == [b"hello"]


def test_send_charges_sender_cpu():
    env, net = make_pair(send_cost=CostModel(per_packet_s=0.010))
    a_sock = net.host("a").bind(100)
    net.host("b").bind(9)

    def sender(env):
        yield a_sock.send_op(Address("b", 9), payload_size=100)

    env.process(sender(env))
    env.run()
    assert env.now >= 0.010


def test_receive_charges_receiver_cpu():
    env, net = make_pair(recv_cost=CostModel(per_packet_s=0.050))
    b_sock = net.host("b").bind(9)
    arrival_times = []

    def sender(env):
        a_sock = net.host("a").bind(100)
        yield a_sock.send_op(Address("b", 9), payload_size=100)

    def receiver(env):
        yield b_sock.recv()
        arrival_times.append(env.now)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert arrival_times[0] >= 0.050


def test_interface_cost_scale_multiplies_cpu_time():
    # The S-bus interface: same packets, more CPU.
    env1, net1 = make_pair(send_cost=CostModel(per_packet_s=0.010))
    env2, net2 = make_pair(send_cost=CostModel(per_packet_s=0.010),
                           cpu_cost_scale=2.0)
    for env, net in [(env1, net1), (env2, net2)]:
        sock = net.host("a").bind(100)
        net.host("b").bind(9)

        def sender(env=env, sock=sock):
            yield sock.send_op(Address("b", 9), payload_size=100)

        env.process(sender())
        env.run()
    assert env2.now == pytest.approx(2 * env1.now, rel=0.2)


def test_tx_queue_overflow_drops_silently():
    # Blast out 20 large datagrams with zero CPU cost: the wire is slow,
    # one frame goes on it, the queue holds the next ones, and the rest
    # are dropped like SunOS did.  Each delivered frame costs the wire
    # 6.8544 ms.
    cases = [(1, 18, 2, "0.0137088"), (2, 17, 3, "0.0205632"),
             (5, 14, 6, "0.041126399999999994")]
    for queue, dropped, delivered, end in cases:
        env, net = make_pair(tx_queue_packets=queue)
        a = net.host("a")
        b_sock = net.host("b").bind(9, buffer_packets=100)
        a_sock = a.bind(100)

        def sender(env, a_sock=a_sock):
            for _ in range(20):
                yield a_sock.send_op(Address("b", 9), payload_size=8192)

        env.process(sender(env))
        env.run()
        assert a.interfaces[0].tx_dropped == dropped, queue
        assert b_sock.pending == delivered, queue
        assert repr(env.now) == end, queue


def test_socket_buffer_overflow_drops():
    env, net = make_pair()
    b_sock = net.host("b").bind(9, buffer_packets=2)
    a_sock = net.host("a").bind(100)

    def sender(env):
        for _ in range(10):
            yield a_sock.send_op(Address("b", 9), payload_size=100)
            yield env.timeout(0.01)  # let each arrive; nobody reads

    env.process(sender(env))
    env.run()
    assert b_sock.pending == 2
    assert b_sock.rx_dropped == 8


def test_recv_with_predicate():
    env, net = make_pair()
    b_sock = net.host("b").bind(9)
    a_sock = net.host("a").bind(100)
    got = []

    def sender(env):
        for seq in range(3):
            yield a_sock.send_op(Address("b", 9), message={"seq": seq},
                                 payload_size=10)

    def receiver(env):
        datagram = yield b_sock.recv(lambda d: d.message["seq"] == 2)
        got.append(datagram.message["seq"])

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == [2]


def test_recv_wait_times_out_and_cancels():
    env, net = make_pair()
    b_sock = net.host("b").bind(9)
    a_sock = net.host("a").bind(100)
    results = []

    def receiver(env):
        result = yield from b_sock.recv_wait(0.5)
        results.append(result)

    def late_sender(env):
        yield env.timeout(1.0)
        yield a_sock.send_op(Address("b", 9), payload_size=10)

    env.process(receiver(env))
    env.process(late_sender(env))
    env.run()
    assert results == [None]
    # The timed-out get must not have consumed the late datagram.
    assert b_sock.pending == 1


def test_recv_wait_returns_datagram_when_in_time():
    env, net = make_pair()
    b_sock = net.host("b").bind(9)
    a_sock = net.host("a").bind(100)
    results = []

    def receiver(env):
        result = yield from b_sock.recv_wait(5.0)
        results.append(result.message)

    def sender(env):
        yield a_sock.send_op(Address("b", 9), message="hi", payload_size=10)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert results == ["hi"]


def test_closed_socket_drops_arrivals_and_rejects_send():
    env, net = make_pair()
    b_sock = net.host("b").bind(9)
    a_sock = net.host("a").bind(100)
    b_sock.close()

    def sender(env):
        yield a_sock.send_op(Address("b", 9), payload_size=10)

    env.process(sender(env))
    env.run()
    # The port is unbound after close, so the interface counts the drop.
    assert net.host("b").interfaces[0].rx_dropped_no_socket == 1
    with pytest.raises(RuntimeError):
        b_sock.send_op(Address("a", 100))


def test_closing_a_socket_again_leaves_the_ports_new_owner_bound():
    env, net = make_pair()
    host_b = net.host("b")
    first = host_b.bind(7)
    first.close()
    second = host_b.bind(7)
    first.close()
    a_sock = net.host("a").bind(100)

    def sender(env):
        yield a_sock.send_op(Address("b", 7), message=b"to B",
                             payload_size=4)

    env.process(sender(env))
    env.run()
    assert host_b.interfaces[0].rx_dropped_no_socket == 0
    assert second.pending == 1
    with pytest.raises(ValueError):
        host_b.bind(7)


def test_port_allocation_unique():
    env = Environment()
    host = Host(env, "h")
    ports = {host.allocate_port() for _ in range(100)}
    assert len(ports) == 100


def test_double_bind_rejected():
    env = Environment()
    host = Host(env, "h")
    host.bind(9)
    with pytest.raises(ValueError):
        host.bind(9)


def test_route_picks_correct_segment():
    env = Environment()
    net = Network(env)
    net.add_ethernet("lab")
    net.add_ethernet("dept")
    client = net.add_host("client")
    net.add_host("s1")
    net.add_host("s2")
    net.connect("client", "lab")
    net.connect("client", "dept", cpu_cost_scale=1.5)
    net.connect("s1", "lab")
    net.connect("s2", "dept")
    assert client.route("s1").medium.name == "lab"
    assert client.route("s2").medium.name == "dept"
    with pytest.raises(LookupError):
        client.route("unknown")


def test_network_rejects_duplicates():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_ethernet("lan")
    with pytest.raises(ValueError):
        net.add_host("a")
    with pytest.raises(ValueError):
        net.add_ethernet("lan")
