"""The storage agent: the server side of the Swift data path.

§3.1: "Each Swift storage agent waits for open requests on a well-known ip
port.  When an open request is received, a new (secondary) thread of control
is established along with a private port for further communication about
that file with the client.  This thread remains active and the
communications channel remains open until the file is closed by the client;
the primary thread always continues to await new open requests."

Agents are dumb and fast: they serve single-packet read requests as soon as
they arrive, track the expected packets of announced write operations, and
acknowledge or NAK.  All object naming uses the agent's local file system
(the prototype "used file system facilities to name and store objects which
makes the storage mediators unnecessary").
"""

from __future__ import annotations

from ..des import Environment
from ..simdisk import LocalFileSystem
from ..simnet import Address, Host
from .agent_protocol import (
    CloseReply,
    CloseRequest,
    DataPacket,
    ListReply,
    ListRequest,
    OpenReply,
    OpenRequest,
    ReadRequest,
    RemoveReply,
    RemoveRequest,
    StatReply,
    StatRequest,
    WriteAck,
    WriteData,
    WriteNak,
    WriteRequest,
    wire_size,
)

__all__ = ["StorageAgent", "AgentStats", "WELL_KNOWN_PORT"]


class AgentStats:
    """Operation counters one storage agent keeps."""

    def __init__(self):
        self.opens = 0
        self.reads_served = 0
        self.bytes_read = 0
        self.write_ops_completed = 0
        self.bytes_written = 0
        self.naks_sent = 0
        self.duplicate_packets = 0

#: The well-known port agents listen on for OPEN requests.
WELL_KNOWN_PORT = 2001


class _WriteState:
    """Progress of one announced write operation.

    Once the op is applied its packets are dropped: they are views of
    the client's buffer, and the handler keeps every op's state until
    the file closes.  An applied op stays complete.
    """

    def __init__(self, request: WriteRequest):
        self.request = request
        self.received: dict[int, WriteData] = {}
        self.written: set[int] = set()
        self.applied = False

    @property
    def complete(self) -> bool:
        return (self.applied
                or len(self.received) >= self.request.expected_packets)

    def missing(self) -> tuple[int, ...]:
        return tuple(index for index in range(self.request.expected_packets)
                     if index not in self.received)


class _FileHandler:
    """The secondary thread: one open file, one private port."""

    def __init__(self, agent: "StorageAgent", handle: int, file_name: str,
                 client: Address):
        self.agent = agent
        self.handle = handle
        self.file_name = file_name
        self.client = client
        self.socket = agent.host.bind(buffer_packets=agent.socket_buffer)
        self.write_ops: dict[int, _WriteState] = {}
        self.open = True
        self._prefetched_upto = 0
        self.process = agent.env.process(self._serve())

    @property
    def port(self) -> int:
        return self.socket.port

    # -- main loop ------------------------------------------------------------

    def _serve(self):
        env = self.agent.env
        while self.open and self.agent.alive:
            datagram = yield self.socket.recv()
            message = datagram.message
            if isinstance(message, ReadRequest):
                yield from self._serve_read(message)
            elif isinstance(message, WriteRequest):
                yield from self._serve_write_request(message)
            elif isinstance(message, WriteData):
                yield from self._serve_write_data(message)
            elif isinstance(message, CloseRequest):
                yield from self._reply(CloseReply(handle=self.handle))
                self._teardown()
            # Unknown messages are dropped, like any datagram service.

    # -- read path --------------------------------------------------------------

    def _serve_read(self, request: ReadRequest):
        fs = self.agent.filesystem
        data = yield from fs.read(self.file_name, request.offset,
                                  request.length)
        packet = DataPacket(handle=self.handle, seq=request.seq,
                            offset=request.offset, payload=bytes(data))
        self.agent.stats.reads_served += 1
        self.agent.stats.bytes_read += len(packet.payload)
        yield from self._reply(packet)
        if self.agent.prefetch:
            self._start_prefetch(
                request.offset + request.length,
                request.length * self.agent.prefetch_span)

    def _start_prefetch(self, offset: int, length: int) -> None:
        """Read ahead into the cache so the next request is a hit."""
        if length <= 0 or offset < self._prefetched_upto:
            return
        self._prefetched_upto = offset + length
        self.agent.filesystem.prefetch(self.file_name, offset, length)

    # -- write path ----------------------------------------------------------------

    def _serve_write_request(self, request: WriteRequest):
        state = self.write_ops.get(request.op_id)
        if state is None:
            state = _WriteState(request)
            self.write_ops[request.op_id] = state
            if state.complete:  # zero-length write
                yield from self._finish_write(state)
            else:
                self.agent.env.process(self._write_watchdog(request.op_id))
        else:
            # Duplicate WRITE-REQ: a status query from the client.
            if state.complete:
                yield from self._reply(
                    WriteAck(handle=self.handle, op_id=request.op_id))
            else:
                yield from self._reply(WriteNak(
                    handle=self.handle, op_id=request.op_id,
                    missing=state.missing()))

    def _serve_write_data(self, packet: WriteData):
        state = self.write_ops.get(packet.op_id)
        if state is None or state.applied:
            # Late or duplicate data for a finished op: ignore (the ACK may
            # have been lost; the client's status query will resolve it).
            return
        if packet.index in state.received:
            self.agent.stats.duplicate_packets += 1
        if packet.index not in state.received:
            state.received[packet.index] = packet
            if self.agent.synchronous_writes:
                # Write-through agents push each packet to disk as it
                # arrives, overlapping the disk with the network stream.
                yield from self.agent.filesystem.write(
                    self.file_name, packet.offset, packet.payload,
                    sync=True)
                state.written.add(packet.index)
        if state.complete:
            yield from self._finish_write(state)

    def _finish_write(self, state: _WriteState):
        if not state.applied:
            state.applied = True
            self.agent.stats.write_ops_completed += 1
            self.agent.stats.bytes_written += state.request.length
            fs = self.agent.filesystem
            for index in sorted(state.received):
                if index in state.written:
                    continue
                packet = state.received[index]
                yield from fs.write(self.file_name, packet.offset,
                                    packet.payload,
                                    sync=self.agent.synchronous_writes)
            state.received.clear()
        yield from self._reply(
            WriteAck(handle=self.handle, op_id=state.request.op_id))

    def _write_watchdog(self, op_id: int):
        """NAK the missing packets if a write *stalls*.

        Progress (any packet since the last check) resets the clock, so a
        long in-flight stream is never NAKed spuriously.
        """
        env = self.agent.env
        last_count = -1
        for _ in range(self.agent.nak_rounds):
            yield env.timeout(self.agent.nak_timeout_s)
            if not self.open or not self.agent.alive:
                return
            state = self.write_ops.get(op_id)
            if state is None or state.complete:
                return
            if len(state.received) == last_count:
                self.agent.stats.naks_sent += 1
                yield from self._reply(WriteNak(
                    handle=self.handle, op_id=op_id,
                    missing=state.missing()))
            last_count = len(state.received)

    # -- plumbing ----------------------------------------------------------------

    def _reply(self, message):
        yield self.socket.send_op(self.client, message=message,
                                  payload_size=wire_size(message))

    def _teardown(self) -> None:
        self.open = False
        self.socket.close()
        self.agent._handlers.pop(self.handle, None)


class StorageAgent:
    """One storage agent process on a host with a local file system."""

    def __init__(self, env: Environment, host: Host,
                 filesystem: LocalFileSystem,
                 well_known_port: int = WELL_KNOWN_PORT,
                 prefetch: bool = True,
                 prefetch_span: int = 4,
                 synchronous_writes: bool = False,
                 socket_buffer: int = 64,
                 nak_timeout_s: float = 0.25,
                 nak_rounds: int = 50):
        self.env = env
        self.host = host
        self.filesystem = filesystem
        if prefetch_span < 1:
            raise ValueError("prefetch_span must be >= 1")
        self.prefetch = prefetch
        #: How many request-lengths of read-ahead to cluster per prefetch
        #: (SunOS clustered its read-ahead similarly); deeper clusters
        #: keep the disk sequential when several files interleave.
        self.prefetch_span = prefetch_span
        self.synchronous_writes = synchronous_writes
        self.socket_buffer = socket_buffer
        self.nak_timeout_s = nak_timeout_s
        self.nak_rounds = nak_rounds
        self.alive = True
        self.stats = AgentStats()
        self.control = host.bind(well_known_port, buffer_packets=socket_buffer)
        self._handlers: dict[int, _FileHandler] = {}
        self._open_replies: dict[tuple[Address, int], OpenReply] = {}
        self._next_handle = 1
        self._primary_process = env.process(self._primary())

    @property
    def name(self) -> str:
        """The agent's host name (how clients address it)."""
        return self.host.name

    @property
    def open_files(self) -> int:
        """Number of active file handlers."""
        return len(self._handlers)

    # -- the primary thread --------------------------------------------------------

    def _primary(self):
        while self.alive:
            datagram = yield self.control.recv()
            message = datagram.message
            reply_to = datagram.src
            if isinstance(message, OpenRequest):
                key = (reply_to, message.request_id)
                reply = self._open_replies.get(key)
                if reply is None:
                    reply = self._do_open(message, reply_to)
                    self._open_replies[key] = reply
            elif isinstance(message, RemoveRequest):
                existed = self.filesystem.exists(message.file_name)
                if existed:
                    self.filesystem.unlink(message.file_name)
                reply = RemoveReply(request_id=message.request_id,
                                    existed=existed)
            elif isinstance(message, StatRequest):
                if self.filesystem.exists(message.file_name):
                    reply = StatReply(
                        request_id=message.request_id, exists=True,
                        local_size=self.filesystem.file_size(
                            message.file_name))
                else:
                    reply = StatReply(request_id=message.request_id,
                                      exists=False)
            elif isinstance(message, ListRequest):
                reply = ListReply(request_id=message.request_id,
                                  names=tuple(self.filesystem.list_files()))
            else:
                continue
            yield self.control.send_op(reply_to, message=reply,
                                       payload_size=wire_size(reply))

    def _do_open(self, message: OpenRequest, client: Address) -> OpenReply:
        fs = self.filesystem
        if not fs.exists(message.file_name):
            if not message.create:
                return OpenReply(request_id=message.request_id, ok=False,
                                 error=f"no such object: {message.file_name}")
            fs.create(message.file_name)
        if message.truncate and fs.file_size(message.file_name):
            fs.unlink(message.file_name)
            fs.create(message.file_name)
        handle = self._next_handle
        self._next_handle += 1
        self.stats.opens += 1
        handler = _FileHandler(self, handle, message.file_name, client)
        self._handlers[handle] = handler
        return OpenReply(
            request_id=message.request_id,
            ok=True,
            handle=handle,
            private_port=handler.port,
            local_size=fs.file_size(message.file_name),
        )

    # -- fault injection --------------------------------------------------------------

    def crash(self) -> None:
        """Stop responding entirely (a partial failure, §2).

        The control socket and every private port are closed; in-flight and
        future datagrams are dropped on the floor.  Clients see timeouts.
        """
        self.alive = False
        self.control.close()
        for handler in list(self._handlers.values()):
            handler._teardown()

    def __repr__(self) -> str:
        state = "up" if self.alive else "CRASHED"
        return f"<StorageAgent {self.name} {state} files={self.open_files}>"
