"""Adversarial network schedules, run against the real DES stack.

Each test plays one hostile schedule on the real client and agents —
crafted datagrams injected straight into the client's socket buffer or
sent to an agent's private port, an agent crashed mid-transfer, a buffer
changed under an in-flight write — and checks the guard that keeps the
transfer exact: the seq filter on reads, the op_id filter on write
replies, the unknown-op guard and the status-query re-ACK in the agent,
the stale-reply purge, and the write-buffer snapshot.  Together they
hold the no-byte-lost, no-byte-duplicated and clean-abort invariants of
docs/PROTOCOL.md.
"""

import pytest

from repro.core import DistributionAgent, StorageAgent, TransferError
from repro.core.agent_protocol import (
    DataPacket,
    WriteAck,
    WriteData,
    WriteNak,
    WriteRequest,
    wire_size,
)
from repro.core.deployment import INSTANT_DISK
from repro.des import Environment, StreamFactory
from repro.simdisk import Disk, LocalFileSystem
from repro.simnet import Address, Datagram, Network


def build_swift(num_agents=1, seed=1, max_retries=5):
    env = Environment()
    streams = StreamFactory(seed)
    net = Network(env, streams)
    net.add_ethernet("lan", loss_probability=0.0)
    client_host = net.add_host("client")
    net.connect("client", "lan", tx_queue_packets=4096)
    agents = []
    for index in range(num_agents):
        name = f"agent{index}"
        host = net.add_host(name)
        net.connect(name, "lan", tx_queue_packets=4096)
        fs = LocalFileSystem(env, Disk(env, INSTANT_DISK), cache_blocks=4096)
        agents.append(StorageAgent(env, host, fs, socket_buffer=4096,
                                   nak_timeout_s=0.05))
    engine = DistributionAgent(
        env, client_host, [f"agent{i}" for i in range(num_agents)],
        "obj", striping_unit=4096, packet_size=4096,
        open_timeout_s=0.1, read_timeout_s=0.1, ack_timeout_s=0.1,
        max_retries=max_retries,
    )
    return env, engine, agents


def run(env, gen):
    return env.run(until=env.process(gen))


def inject(channel, message):
    """Plant a crafted datagram in the client channel's receive buffer."""
    channel.socket.deliver(Datagram(
        src=channel.data_address,
        dst=Address("client", channel.socket.port),
        size=64, message=message))


def inject_at(env, delay, channel, message):
    """Plant ``message`` in the client's buffer ``delay`` seconds from now."""
    def injector():
        yield env.timeout(delay)
        inject(channel, message)
    env.process(injector())


def send_to_agent(env, channel, message):
    """Send a crafted datagram to the agent's private port; let it land."""
    def sender():
        yield channel.socket.send_op(channel.data_address, message=message,
                                     payload_size=wire_size(message))
        yield env.timeout(0.05)
    run(env, sender())


PAYLOAD = bytes((i * 7 + 3) % 256 for i in range(12_000))


def test_duplicate_ack_after_client_advance_is_purged():
    # The adversary's duplicated-ACK schedule: the ACK for a completed
    # op arrives (again and again) after the client already advanced.
    # The next write must purge the stale replies — left in the buffer
    # they would crowd out the live ACK (the rx queue is finite).
    env, engine, _ = build_swift()
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    channel = engine.data_channels[0]
    for _ in range(channel.socket.buffer_packets):
        inject(channel, WriteAck(handle=channel.handle, op_id=1))
    assert channel.socket._rx.size == channel.socket.buffer_packets
    run(env, engine.write(0, PAYLOAD))
    # The live ACK got through: no timeouts, and the stale flood is gone.
    assert engine.stats.ack_timeouts == 0
    assert not any(isinstance(d.message, WriteAck)
                   for d in channel.socket._rx.items)
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD


def test_stale_nak_from_previous_op_is_not_trusted():
    # A stale NAK (an op the client finished long ago) claims packets
    # are missing.  The op_id filter must keep the client from
    # retransmitting anything for it.
    env, engine, _ = build_swift()
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    channel = engine.data_channels[0]
    inject(channel, WriteNak(handle=channel.handle, op_id=1,
                             missing=(0, 1, 2)))
    run(env, engine.write(0, PAYLOAD))
    assert engine.stats.naks_received == 0
    assert engine.stats.write_retransmits == 0
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD


def test_agent_crash_between_partial_write_acks_aborts_cleanly():
    # The crash schedule: the first write is ACKed, the agent dies, the
    # second write can never complete.  Bounded liveness demands a clean
    # abort within max_retries, with the channel marked failed.
    env, engine, agents = build_swift(num_agents=2, max_retries=3)
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    agents[0].crash()
    with pytest.raises(TransferError):
        run(env, engine.write(0, PAYLOAD))
    assert 0 in engine.failed_agents
    # The retransmit bound was honoured, not exceeded.
    assert engine.stats.ack_timeouts <= 3


def test_crash_does_not_corrupt_the_surviving_stripe():
    # After the aborted write, data on the surviving agent must still be
    # either the old or the new generation for its stripe — readable
    # without protocol errors once the dead agent is marked failed.
    env, engine, agents = build_swift(num_agents=2, max_retries=2)
    run(env, engine.open(create=True))
    first = bytes(200) + PAYLOAD[200:]
    run(env, engine.write(0, first))
    agents[1].crash()
    with pytest.raises(TransferError):
        run(env, engine.write(0, PAYLOAD))
    assert 1 in engine.failed_agents


def test_stale_data_packet_never_answers_a_later_read():
    # A DataPacket of an older seq arrives after _fetch_packet purged the
    # buffer and while it waits for the live reply: the seq filter must
    # leave it unread, or the read returns the stale bytes.
    env, engine, _ = build_swift()
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    channel = engine.data_channels[0]
    inject_at(env, 0.0001, channel, DataPacket(
        handle=channel.handle, seq=0, offset=0, payload=bytes(4096)))
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD


def test_data_for_an_unknown_op_is_never_written():
    # Late WRITE-DATA of an op the agent never saw announced (a previous
    # session's, or a crafted one) must be dropped by the unknown-op guard.
    env, engine, _ = build_swift()
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    channel = engine.data_channels[0]
    send_to_agent(env, channel, WriteData(
        handle=channel.handle, op_id=99, index=0, offset=0,
        payload=bytes(4096)))
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD


def test_status_query_for_an_old_op_never_reapplies_it():
    # A duplicate WRITE-REQ of a completed op is a status query: the agent
    # re-ACKs it.  Re-applying op 1's packets would put the zeros back
    # over op 2's bytes (the no-double-apply invariant).
    env, engine, _ = build_swift()
    run(env, engine.open(create=True))
    run(env, engine.write(0, bytes(len(PAYLOAD))))
    run(env, engine.write(0, PAYLOAD))
    channel = engine.data_channels[0]
    send_to_agent(env, channel, WriteRequest(
        handle=channel.handle, op_id=1, offset=0, length=len(PAYLOAD),
        packet_size=4096))
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD


def test_ack_for_another_op_never_completes_a_write():
    # The agent is dead, so op 2 can only time out; a stale ACK of op 1,
    # arriving after op 2's purge, must not complete it.
    env, engine, agents = build_swift(max_retries=3)
    run(env, engine.open(create=True))
    run(env, engine.write(0, PAYLOAD))
    agents[0].crash()
    channel = engine.data_channels[0]
    inject_at(env, 0.0001, channel, WriteAck(handle=channel.handle, op_id=1))
    with pytest.raises(TransferError):
        run(env, engine.write(0, PAYLOAD))


def test_buffer_changed_during_a_write_never_reaches_the_agents():
    # With three agents each region is one zero-copy chunk of the caller's
    # buffer, so the packets in flight alias it: write() must snapshot a
    # writable buffer, or the caller's later change lands on the agents.
    env, engine, _ = build_swift(num_agents=3)
    run(env, engine.open(create=True))
    buffer = bytearray(PAYLOAD)

    def overwrite():
        yield env.timeout(0.0001)
        buffer[:] = bytes(len(buffer))
    env.process(overwrite())
    run(env, engine.write(0, buffer))
    assert run(env, engine.read(0, len(PAYLOAD))) == PAYLOAD
