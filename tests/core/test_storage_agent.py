"""Protocol-level storage agent behaviour (§3.1), driven directly."""

import pytest

from repro.core import (
    CloseReply,
    CloseRequest,
    DataPacket,
    OpenReply,
    OpenRequest,
    ReadRequest,
    StorageAgent,
    WriteAck,
    WriteData,
    WriteNak,
    WriteRequest,
    WELL_KNOWN_PORT,
    wire_size,
)
from repro.core import build_local_swift
from repro.core.deployment import INSTANT_DISK, LoopbackMedium
from repro.core.storage_agent import _AppliedOps
from repro.des import Environment
from repro.simdisk import Disk, LocalFileSystem
from repro.simnet import Address, Host


class AgentFixture:
    """One agent plus a raw client socket for hand-crafted messages."""

    def __init__(self, nak_timeout_s=0.05):
        self.env = Environment()
        medium = LoopbackMedium(self.env, "loop")
        agent_host = Host(self.env, "agent")
        client_host = Host(self.env, "client")
        agent_host.attach(medium, tx_queue_packets=1024)
        client_host.attach(medium, tx_queue_packets=1024)
        fs = LocalFileSystem(self.env, Disk(self.env, INSTANT_DISK),
                             cache_blocks=1024)
        self.agent = StorageAgent(self.env, agent_host, fs,
                                  nak_timeout_s=nak_timeout_s)
        self.socket = client_host.bind(buffer_packets=1024)
        self.control = Address("agent", WELL_KNOWN_PORT)

    def run(self, gen):
        return self.env.run(until=self.env.process(gen))

    def call(self, dst, message, reply_predicate, timeout=1.0):
        def gen():
            yield self.socket.send_op(dst, message=message,
                                      payload_size=wire_size(message))
            return (yield from self.socket.recv_wait(timeout,
                                                     reply_predicate))
        return self.run(gen())

    def open_file(self, name="f", create=True, request_id=1):
        reply = self.call(
            self.control,
            OpenRequest(file_name=name, create=create, truncate=False,
                        request_id=request_id),
            lambda d: isinstance(d.message, OpenReply))
        return reply.message


def test_open_creates_handler_with_private_port():
    fixture = AgentFixture()
    reply = fixture.open_file()
    assert reply.ok
    assert reply.private_port != WELL_KNOWN_PORT
    assert fixture.agent.open_files == 1


def test_open_missing_without_create_fails():
    fixture = AgentFixture()
    reply = fixture.open_file(create=False)
    assert not reply.ok
    assert "no such object" in reply.error
    assert fixture.agent.open_files == 0


def test_duplicate_open_request_is_idempotent():
    # A retransmitted OPEN (lost reply) must not spawn a second handler.
    fixture = AgentFixture()
    first = fixture.open_file(request_id=9)
    second = fixture.open_file(request_id=9)
    assert first.handle == second.handle
    assert first.private_port == second.private_port
    assert fixture.agent.open_files == 1


def test_distinct_opens_get_distinct_handlers():
    fixture = AgentFixture()
    first = fixture.open_file(request_id=1)
    second = fixture.open_file(request_id=2)
    assert first.handle != second.handle
    assert fixture.agent.open_files == 2


def test_read_request_returns_data_packet():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)
    fixture.run(fixture.agent.filesystem.write("f", 0, b"0123456789"))
    packet = fixture.call(
        data_addr,
        ReadRequest(handle=reply.handle, seq=1, offset=2, length=5),
        lambda d: isinstance(d.message, DataPacket))
    assert packet.message.payload == b"23456"
    assert packet.message.seq == 1


def test_read_past_eof_returns_short_packet():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)
    fixture.run(fixture.agent.filesystem.write("f", 0, b"abc"))
    packet = fixture.call(
        data_addr,
        ReadRequest(handle=reply.handle, seq=2, offset=0, length=100),
        lambda d: isinstance(d.message, DataPacket))
    assert packet.message.payload == b"abc"


def test_write_acked_when_all_packets_arrive():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)

    def gen():
        req = WriteRequest(handle=reply.handle, op_id=1, offset=0,
                           length=8, packet_size=4)
        yield fixture.socket.send_op(data_addr, message=req,
                                     payload_size=wire_size(req))
        for index, piece in enumerate([b"abcd", b"efgh"]):
            packet = WriteData(handle=reply.handle, op_id=1, index=index,
                               offset=index * 4, payload=piece)
            yield fixture.socket.send_op(data_addr, message=packet,
                                         payload_size=wire_size(packet))
        return (yield from fixture.socket.recv_wait(
            1.0, lambda d: isinstance(d.message, WriteAck)))

    ack = fixture.run(gen())
    assert ack is not None
    assert fixture.agent.filesystem.file_size("f") == 8


def test_stalled_write_gets_nak_with_missing_indices():
    fixture = AgentFixture(nak_timeout_s=0.02)
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)

    def gen():
        req = WriteRequest(handle=reply.handle, op_id=7, offset=0,
                           length=12, packet_size=4)
        yield fixture.socket.send_op(data_addr, message=req,
                                     payload_size=wire_size(req))
        # Send only packet 1 of {0,1,2}; the watchdog must NAK {0,2}.
        packet = WriteData(handle=reply.handle, op_id=7, index=1,
                           offset=4, payload=b"MIDL")
        yield fixture.socket.send_op(data_addr, message=packet,
                                     payload_size=wire_size(packet))
        return (yield from fixture.socket.recv_wait(
            1.0, lambda d: isinstance(d.message, WriteNak)))

    nak = fixture.run(gen())
    assert nak is not None
    assert nak.message.missing == (0, 2)


def test_duplicate_write_request_reports_status():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)
    req = WriteRequest(handle=reply.handle, op_id=3, offset=0,
                       length=4, packet_size=4)

    def gen():
        yield fixture.socket.send_op(data_addr, message=req,
                                     payload_size=wire_size(req))
        packet = WriteData(handle=reply.handle, op_id=3, index=0,
                           offset=0, payload=b"done")
        yield fixture.socket.send_op(data_addr, message=packet,
                                     payload_size=wire_size(packet))
        yield from fixture.socket.recv_wait(
            1.0, lambda d: isinstance(d.message, WriteAck))
        # The ACK "was lost": query by re-sending the announcement.
        yield fixture.socket.send_op(data_addr, message=req,
                                     payload_size=wire_size(req))
        return (yield from fixture.socket.recv_wait(
            1.0, lambda d: isinstance(d.message, WriteAck)))

    second_ack = fixture.run(gen())
    assert second_ack is not None


def test_duplicate_write_data_ignored():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)

    def gen():
        req = WriteRequest(handle=reply.handle, op_id=4, offset=0,
                           length=4, packet_size=4)
        yield fixture.socket.send_op(data_addr, message=req,
                                     payload_size=wire_size(req))
        packet = WriteData(handle=reply.handle, op_id=4, index=0,
                           offset=0, payload=b"once")
        for _ in range(3):  # duplicates
            yield fixture.socket.send_op(data_addr, message=packet,
                                         payload_size=wire_size(packet))
        yield from fixture.socket.recv_wait(
            0.5, lambda d: isinstance(d.message, WriteAck))

    fixture.run(gen())
    assert fixture.agent.filesystem.file_size("f") == 4


def test_zero_length_write_acks_immediately():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)
    ack = fixture.call(
        data_addr,
        WriteRequest(handle=reply.handle, op_id=5, offset=0, length=0,
                     packet_size=4),
        lambda d: isinstance(d.message, WriteAck))
    assert ack is not None


def test_close_releases_handler_and_port():
    fixture = AgentFixture()
    reply = fixture.open_file()
    data_addr = Address("agent", reply.private_port)
    closed = fixture.call(
        data_addr,
        CloseRequest(handle=reply.handle),
        lambda d: isinstance(d.message, CloseReply))
    assert closed is not None
    assert fixture.agent.open_files == 0
    # The private port is gone: further requests are dropped silently.
    silence = fixture.call(
        data_addr,
        ReadRequest(handle=reply.handle, seq=9, offset=0, length=4),
        lambda d: isinstance(d.message, DataPacket), timeout=0.2)
    assert silence is None


def test_crashed_agent_goes_silent():
    fixture = AgentFixture()
    reply = fixture.open_file()
    fixture.agent.crash()
    assert not fixture.agent.alive
    answer = fixture.call(
        fixture.control,
        OpenRequest(file_name="g", create=True, truncate=False,
                    request_id=42),
        lambda d: isinstance(d.message, OpenReply), timeout=0.2)
    assert answer is None


def test_write_request_expected_packets():
    req = WriteRequest(handle=1, op_id=1, offset=0, length=10,
                       packet_size=4)
    assert req.expected_packets == 3
    assert WriteRequest(handle=1, op_id=1, offset=0, length=0,
                        packet_size=4).expected_packets == 0


def test_wire_size_accounting():
    data = DataPacket(handle=1, seq=1, offset=0, payload=b"x" * 100)
    assert wire_size(data) == 132
    nak = WriteNak(handle=1, op_id=1, missing=(1, 2, 3))
    assert wire_size(nak) == 64 + 12
    assert wire_size(CloseRequest(handle=1)) == 64


# -- applied write ops --------------------------------------------------------

def _overwritten_handle(rounds=20, size=1 << 20):
    """A handle that overwrote one object ``rounds`` times, still open."""
    deployment = build_local_swift(num_agents=3)
    handle = deployment.client().open("obj", "w")
    for round_ in range(rounds):
        handle.pwrite(0, bytes([round_]) * size)
    return deployment, handle


def _exchange(env, channel, message, reply_predicate):
    """Send ``message`` on a client channel; the reply datagram or None."""
    def exchange():
        yield channel.socket.send_op(channel.data_address, message=message,
                                     payload_size=wire_size(message))
        return (yield from channel.socket.recv_wait(0.05, reply_predicate))
    return env.run(until=env.process(exchange()))


def _listen(env, channel, timeout_s=0.5):
    """The next datagram to reach a client channel, or None."""
    return env.run(until=env.process(
        channel.socket.recv_wait(timeout_s, lambda d: True)))


def test_applied_write_ops_hold_no_payload():
    # An op keeps its state (and its packets, views of the client's
    # buffer) only until it is applied; the handler then remembers its id,
    # one range for a handle's consecutive ops.
    deployment, handle = _overwritten_handle()
    channels = handle.engine.data_channels
    assert len(channels) == 3
    handlers = [handler for agent in deployment.agents.values()
                for handler in agent._handlers.values()]
    assert len(handlers) == 3
    states = [state for handler in handlers
              for state in handler.write_ops.values()]
    assert len(states) == 0
    for handler in handlers:
        assert (handler.applied_ops.starts, handler.applied_ops.stops) \
            == ([1], [21])
    assert handle.pread(0, 1 << 20) == bytes([19]) * (1 << 20)


def _status_query(channel, op_id):
    """A duplicate WRITE-REQ of ``op_id`` on ``channel``."""
    return WriteRequest(handle=channel.handle, op_id=op_id, offset=0,
                        length=1 << 20, packet_size=8192)


def test_status_query_for_an_applied_op_is_acked_once():
    deployment, handle = _overwritten_handle()
    env = deployment.env
    totals = [(agent.stats.write_ops_completed, agent.stats.bytes_written)
              for agent in deployment.agents.values()]
    assert [completed for completed, _ in totals] == [20, 20, 20]
    assert sum(written for _, written in totals) == 20 << 20
    for channel in handle.engine.data_channels:
        for op_id in (1, 20):
            reply = _exchange(
                env, channel, _status_query(channel, op_id),
                lambda d: isinstance(d.message, (WriteAck, WriteNak))
                and d.message.op_id == op_id)
            assert isinstance(reply.message, WriteAck)
            assert _listen(env, channel) is None
    # The query re-acknowledges; it neither re-applies nor re-counts.
    assert [(agent.stats.write_ops_completed, agent.stats.bytes_written)
            for agent in deployment.agents.values()] == totals
    assert handle.pread(0, 1 << 20) == bytes([19]) * (1 << 20)


def test_late_write_data_for_an_applied_op_is_ignored():
    deployment, handle = _overwritten_handle()
    env = deployment.env
    channel = handle.engine.data_channels[0]
    agent = deployment.agents[channel.agent_host]
    handler = agent._handlers[channel.handle]
    op_id = handler.applied_ops.starts[0]
    duplicates = agent.stats.duplicate_packets
    late = WriteData(handle=channel.handle, op_id=op_id, index=0, offset=0,
                     payload=b"\xff" * 64)
    assert _exchange(env, channel, late, lambda d: True) is None
    assert op_id not in handler.write_ops
    assert agent.stats.duplicate_packets == duplicates
    assert handle.pread(0, 64) == bytes([19]) * 64


def test_write_request_for_an_op_never_seen_opens_it():
    deployment, handle = _overwritten_handle(rounds=3)
    env = deployment.env
    channel = handle.engine.data_channels[0]
    handler = deployment.agents[channel.agent_host]._handlers[channel.handle]
    assert _exchange(env, channel, _status_query(channel, 7),
                     lambda d: isinstance(d.message, WriteAck)) is None
    assert list(handler.write_ops) == [7]
    assert 7 not in handler.applied_ops
    assert [op_id in handler.applied_ops for op_id in range(5)] \
        == [False, True, True, True, False]


def test_applied_op_ranges_merge_consecutive_ids():
    applied = _AppliedOps()
    for op_id in (5, 1, 3, 2, 9, 4, 3, 11, 10):
        applied.add(op_id)
    assert (applied.starts, applied.stops) == ([1, 9], [6, 12])
    assert [op_id for op_id in range(13) if op_id in applied] \
        == [1, 2, 3, 4, 5, 9, 10, 11]
