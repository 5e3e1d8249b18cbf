"""Exactness pins for the per-datagram fast paths of the simulated network.

The data path memoises what does not change between datagrams (routes,
socket addresses, wire times per size), applies the CPU jitter inline and
places background bursts in one loop.  Each test here compares a fast
path bit for bit against the arithmetic it replaced, so a stale cache or
a reordered float operation fails it.
"""

import pytest

from repro.des import Environment, RandomStream
from repro.simnet import (
    HEADER_SIZE,
    Address,
    BackgroundLoad,
    CostModel,
    Datagram,
    Ethernet,
    Host,
    TokenRing,
)

from .recording import RecordingCpu


class _PerBurstLoad:
    """The background load placed one burst per call: a gap draw, a
    settle of the previous burst's idle mark, a busy mark, in that order
    (the body :meth:`BackgroundLoad.fold` folds into one loop)."""

    def __init__(self, env, medium, fraction, stream, period_s=0.005):
        self.medium = medium
        self.fraction = fraction
        self.stream = stream
        self.period_s = period_s
        self._idle_at = None
        medium._background = self
        self._draw(env.now)

    def _draw(self, after):
        gap = self.stream.exponential(self.period_s)
        self._request_at = after + gap
        self._busy_s = gap * self.fraction / max(1e-12, 1.0 - self.fraction)

    def fold(self, now):
        if self._request_at <= now:
            cable = self.medium.cable
            while self._request_at <= now:
                request_at = self._request_at
                if self._idle_at is not None:
                    self._settle(request_at)
                start = cable.free_at
                if start <= request_at:
                    start = request_at
                    self.medium.monitor.busy(request_at)
                cable.free_at = end = start + self._busy_s
                self._idle_at = end
                self._draw(end)
        if self._idle_at is not None:
            self._settle(now)

    def _settle(self, now):
        idle_at = self._idle_at
        if self.medium.cable.free_at != idle_at:
            self._idle_at = None
        elif idle_at <= now:
            self.medium.monitor.idle(idle_at)
            self._idle_at = None


def _loaded_run(load_class, fraction, seed):
    """Frames at seeded times on a loaded segment; what the load left."""
    env = Environment()
    ether = Ethernet(env)
    load = load_class(env, ether, fraction, RandomStream(seed))
    schedule = RandomStream(seed + 1)
    free_at = []

    def sender():
        for _ in range(400):
            yield env.timeout(schedule.exponential(0.002))
            size = 64 + int(schedule.uniform(0.0, 8252.0))
            # Not waited for: frames queue behind bursts and each other.
            ether.transmit_op(Datagram(Address("a", 1), Address("b", 2), size))
            free_at.append(ether.cable.free_at)
            ether.utilization()

    env.process(sender())
    env.run()
    monitor = ether.monitor
    return {"free_at": free_at, "cable": ether.cable.free_at,
            "busy": (monitor._busy_total, monitor._busy_since),
            "busy_time": monitor.busy_time,
            "next_draw": load.stream.uniform(0.0, 1.0)}


@pytest.mark.parametrize("fraction", [0.05, 0.4])
@pytest.mark.parametrize("seed", [3, 17])
def test_fold_matches_the_per_burst_load(fraction, seed):
    folded = _loaded_run(BackgroundLoad, fraction, seed)
    per_burst = _loaded_run(_PerBurstLoad, fraction, seed)
    assert folded == per_burst
    assert len(folded["free_at"]) == 400


def test_fold_without_frames_matches_the_per_burst_load():
    # Utilization reads alone: every fold resolves idle marks against a
    # cable only the bursts hold.
    results = []
    for load_class in (BackgroundLoad, _PerBurstLoad):
        env = Environment()
        ether = Ethernet(env)
        load = load_class(env, ether, 0.3, RandomStream(9))
        times = RandomStream(10)
        reads = []
        for _ in range(300):
            env.run(until=env.now + times.exponential(0.004))
            reads.append(ether.utilization())
        results.append((reads, ether.cable.free_at,
                        load.stream.exponential(1.0)))
    assert results[0] == results[1]


# -- CPU charges ----------------------------------------------------------------

NOISE = 0.05


def _jittered(cost_s, speed_factor, stream):
    """A jittered charge in the operation order of the reference."""
    return cost_s * speed_factor * (1.0 + stream.uniform(-NOISE, NOISE))


def test_send_and_receive_charges_are_jittered_costs():
    env = Environment()
    send_cost = CostModel(per_packet_s=3.1e-4, per_byte_s=1.7e-7)
    recv_cost = CostModel(per_packet_s=2.3e-4, per_byte_s=1.1e-7)
    sender = Host(env, "a", send_cost=send_cost, noise_fraction=NOISE,
                  noise_stream=RandomStream(11))
    receiver = Host(env, "b", recv_cost=recv_cost, noise_fraction=NOISE,
                    noise_stream=RandomStream(12))
    sender.cpu = RecordingCpu(env)
    receiver.cpu = RecordingCpu(env)
    # Twins of the two noise streams, advanced past the speed factors.
    twin_sender, twin_receiver = RandomStream(11), RandomStream(12)
    sender_speed = 1.0 + twin_sender.uniform(-NOISE, NOISE) / 2.0
    receiver_speed = 1.0 + twin_receiver.uniform(-NOISE, NOISE) / 2.0
    ether = Ethernet(env)
    sender.attach(ether, cpu_cost_scale=1.3, tx_queue_packets=64)
    receiver.attach(ether, cpu_cost_scale=0.7)
    source = sender.bind(1)
    sink = receiver.bind(2, buffer_packets=64)
    sizes = RandomStream(13)
    payloads = [int(sizes.uniform(0.0, 8288.0)) for _ in range(60)]
    for payload in payloads:
        source.send_op(sink.address, payload_size=payload)
    env.run()
    assert sink.pending == len(payloads)
    wire_sizes = [payload + HEADER_SIZE for payload in payloads]
    assert sender.cpu.holds == [
        _jittered(send_cost.time(size) * 1.3, sender_speed, twin_sender)
        for size in wire_sizes]
    assert receiver.cpu.holds == [
        _jittered(recv_cost.time(size) * 0.7, receiver_speed, twin_receiver)
        for size in wire_sizes]


# -- caches follow their inputs -------------------------------------------------

def _frame_time(medium, size):
    """Cable time of one frame sent now on an idle medium."""
    env = medium.env
    start = env.now
    medium.transmit_op(Datagram(Address("a", 1), Address("b", 2), size))
    env.run()
    return medium.cable.free_at - start


def test_setting_bits_per_second_changes_the_next_frame():
    env = Environment()
    ether = Ethernet(env)
    before = _frame_time(ether, 8252)
    assert before == pytest.approx(ether.transmission_time(8252))
    ether.bits_per_second = 20_000_000.0
    after = _frame_time(ether, 8252)
    assert after == pytest.approx(ether.transmission_time(8252))
    assert after < 0.6 * before


def test_setting_token_ring_parameters_changes_the_next_frame():
    env = Environment()
    ring = TokenRing(env)
    base = _frame_time(ring, 1000)
    ring.token_rotation_s = 1e-3
    slower = _frame_time(ring, 1000)
    assert slower == pytest.approx(base + 0.5e-3 - 10e-6)
    ring.bits_per_second = 1e6
    assert _frame_time(ring, 1000) == pytest.approx(0.5e-3 + 1000 * 8 / 1e6)


def test_route_follows_a_new_attachment():
    env = Environment()
    lab, dept = Ethernet(env, "lab"), Ethernet(env, "dept")
    a, b, c = Host(env, "a"), Host(env, "b"), Host(env, "c")
    a.attach(lab)
    c.attach(dept)
    with pytest.raises(LookupError):
        a.route("c")
    # A host attached to a second medium routes to the host on it.
    a.attach(dept)
    assert a.route("c").medium is dept
    # A destination that joins an earlier medium of the sender takes
    # that route from then on, as a fresh scan would.
    b.attach(dept)
    assert a.route("b").medium is dept
    b.attach(lab)
    assert a.route("b").medium is lab


def test_socket_address_is_its_host_and_port():
    env = Environment()
    host = Host(env, "h")
    for port in (None, 7, None):
        socket = host.bind(port)
        assert socket.address == Address(host.name, socket.port)
