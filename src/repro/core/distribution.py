"""The distribution agent: the client side of the Swift data path.

§2: "To transmit the object to or from the client, the distribution agent
stores or retrieves the data at the storage agents following the transfer
plan with no further intervention by the storage mediator."  In the
prototype "the Swift distribution agent is embedded in the libraries and is
represented by the client" — this module is that library.

Protocol behaviour follows §3.1 precisely:

* **read** — one outstanding packet request per storage agent (the SunOS
  buffer-space workaround); no acknowledgements: the client tracks what it
  has received and resubmits requests on timeout;
* **write** — the client streams the data packets "as fast as it can"
  (optionally separated by the small wait loop the prototype needed) and
  requires an explicit ACK from each agent, retransmitting whatever a NAK
  lists as missing.

Redundancy (computed copy, §2) keeps one XOR parity unit per stripe on a
dedicated parity agent.  Reads reconstruct around a single failed agent;
writes keep parity consistent by building full stripe images (pre-reading
old data for partially-written stripes) and continue to work with one data
agent down.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from ..des import CallbackProcess, Environment
from ..simnet import Address, DatagramSocket, Host
from .agent_protocol import (
    CloseReply,
    CloseRequest,
    DataPacket,
    OpenReply,
    OpenRequest,
    ReadRequest,
    WriteAck,
    WriteData,
    WriteNak,
    WriteRequest,
    wire_size,
)
from .errors import AgentFailure, ObjectNotFound, SessionClosed, TransferError
from .parity import compute_parity, reconstruct_unit
from .storage_agent import WELL_KNOWN_PORT
from .striping import StripeLayout

__all__ = ["DistributionAgent", "TransferStats"]

_request_ids = itertools.count(1)


def _frozen(data) -> "bytes | memoryview":
    """An immutable alias of ``data``, copying only when it must.

    Packet payloads are zero-copy views into the write buffer and stay
    referenced across simulation time, so the backing must not change
    under them.  ``bytes`` and other readonly buffers pass through as a
    readonly view without copying; writable inputs (bytearray, writable
    memoryview) are snapshotted exactly once.
    """
    if isinstance(data, bytes):
        return data
    view = memoryview(data)
    return view if view.readonly else view.tobytes()


class _Region:
    """One agent's contiguous file region as a list of views, not joined.

    ``parts`` are the region's pieces in file order: one view of the
    caller's buffer per chunk (or one per parity unit).  A packet cut
    from the region is a view of the part it lies in; only a packet that
    straddles two parts is joined.
    """

    __slots__ = ("parts", "_ends")

    def __init__(self, parts: list):
        self.parts = parts
        self._ends = list(itertools.accumulate(map(len, parts)))

    def __len__(self) -> int:
        return self._ends[-1]

    def piece(self, start: int, length: int):
        """Bytes ``[start, start + length)`` of the region, cut at its end."""
        ends = self._ends
        stop = min(start + length, ends[-1])
        index = bisect_right(ends, start)
        part = self.parts[index]
        end = ends[index]
        base = end - len(part)
        if stop <= end:
            if start == base and stop == end:
                return part  # the whole part: no new view object
            return part[start - base:stop - base]
        joined = [part[start - base:]]
        while stop > ends[index]:
            index += 1
            joined.append(self.parts[index][:stop - ends[index - 1]])
        return b"".join(joined)


@dataclass
class TransferStats:
    """Counters a distribution agent keeps about its traffic."""

    packets_sent: int = 0
    packets_received: int = 0
    read_retransmits: int = 0
    write_retransmits: int = 0
    naks_received: int = 0
    ack_timeouts: int = 0
    reconstructed_units: int = 0


class _Channel:
    """Client-side state for one storage agent of one open file."""

    def __init__(self, env: Environment, client_host: Host, agent_host: str,
                 index: int):
        self.env = env
        self.agent_host = agent_host
        self.index = index
        self.socket: DatagramSocket = client_host.bind(buffer_packets=16)
        self.control_address = Address(agent_host, WELL_KNOWN_PORT)
        self.data_address: Optional[Address] = None
        self.handle = -1
        self.local_size = 0
        self.failed = False
        self._seq = itertools.count(1)
        self._op = itertools.count(1)

    def next_seq(self) -> int:
        return next(self._seq)

    def next_op(self) -> int:
        return next(self._op)

    def close(self) -> None:
        self.socket.close()


class DistributionAgent:
    """Moves one Swift object's bytes between the client and its agents.

    ``agent_hosts`` lists the storage agents; with ``parity=True`` the last
    one is the dedicated parity agent and the others hold data.
    """

    def __init__(
        self,
        env: Environment,
        client_host: Host,
        agent_hosts: list[str],
        object_name: str,
        striping_unit: int = 8192,
        packet_size: int = 8192,
        parity: bool = False,
        open_timeout_s: float = 0.5,
        read_timeout_s: float = 0.5,
        ack_timeout_s: float = 0.5,
        max_retries: int = 8,
        interpacket_gap_s: float = 0.0,
    ):
        if not agent_hosts:
            raise ValueError("need at least one storage agent")
        if parity and len(agent_hosts) < 3:
            raise ValueError("parity needs at least two data agents plus one "
                             "parity agent")
        if packet_size < 1 or striping_unit < 1:
            raise ValueError("packet size and striping unit must be >= 1")
        self.env = env
        self.client_host = client_host
        self.object_name = object_name
        self.parity = parity
        self.packet_size = packet_size
        self.open_timeout_s = open_timeout_s
        self.read_timeout_s = read_timeout_s
        self.ack_timeout_s = ack_timeout_s
        self.max_retries = max_retries
        self.interpacket_gap_s = interpacket_gap_s
        self.stats = TransferStats()

        num_data = len(agent_hosts) - 1 if parity else len(agent_hosts)
        self.layout = StripeLayout(num_data, striping_unit)
        self.channels = [
            _Channel(env, client_host, name, index)
            for index, name in enumerate(agent_hosts)
        ]
        self._size = 0
        self._opened = False
        self._closed = False
        self._transfer_ops = itertools.count(1)

    # -- conservation-ledger emitters ------------------------------------------------

    def _new_op(self, direction: str) -> Optional[str]:
        """A transfer id (``name#w3`` / ``name#r1``) when a ledger listens.

        Emitting is gated on an attached transfer monitor, so the data
        path pays one falsy test per call in normal runs.  The per-chunk
        and per-packet sites test ``op`` before calling :meth:`_emit`,
        so they do not even build its keyword arguments.
        """
        if not self.env._transfer_monitors:
            return None
        return f"{self.object_name}#{direction}{next(self._transfer_ops)}"

    def _emit(self, op: Optional[str], kind: str, **info) -> None:
        if op is not None:
            self.env._notify_transfer(kind, op=op, **info)

    # -- properties ---------------------------------------------------------------

    @property
    def data_channels(self) -> list[_Channel]:
        """Channels that carry data units."""
        return self.channels[:self.layout.num_agents]

    @property
    def parity_channel(self) -> Optional[_Channel]:
        """The parity channel, if redundancy is on."""
        return self.channels[-1] if self.parity else None

    @property
    def size(self) -> int:
        """Logical object size in bytes."""
        return self._size

    @property
    def failed_agents(self) -> list[int]:
        """Indices of channels currently marked failed."""
        return [ch.index for ch in self.channels if ch.failed]

    def mark_failed(self, index: int) -> None:
        """Administratively declare an agent failed (e.g. known outage)."""
        self.channels[index].failed = True

    # -- session lifecycle -----------------------------------------------------------

    def open(self, create: bool = False, truncate: bool = False):
        """Process method: open the object on every agent."""
        if self._closed:
            raise SessionClosed(self.object_name)
        for channel in self.channels:
            yield from self._open_channel(channel, create, truncate)
        data_sizes = [ch.local_size for ch in self.data_channels]
        self._size = self.layout.logical_size(data_sizes)
        self._opened = True
        return self._size

    def _open_channel(self, channel: _Channel, create: bool, truncate: bool):
        request = OpenRequest(
            file_name=self.object_name, create=create, truncate=truncate,
            request_id=next(_request_ids),
        )
        for _ in range(self.max_retries):
            yield channel.socket.send_op(
                channel.control_address, message=request,
                payload_size=wire_size(request))
            self.stats.packets_sent += 1
            datagram = yield from channel.socket.recv_wait(
                self.open_timeout_s,
                predicate=lambda d: isinstance(d.message, OpenReply)
                and d.message.request_id == request.request_id)
            if datagram is None:
                continue
            reply: OpenReply = datagram.message
            self.stats.packets_received += 1
            if not reply.ok:
                raise ObjectNotFound(reply.error)
            channel.handle = reply.handle
            channel.data_address = Address(channel.agent_host,
                                           reply.private_port)
            channel.local_size = reply.local_size
            return
        raise AgentFailure(
            f"agent {channel.agent_host} did not answer OPEN")

    def close(self):
        """Process method: close every channel and release ports."""
        if self._closed:
            raise SessionClosed(self.object_name)
        for channel in self.channels:
            if channel.failed or channel.handle < 0:
                continue
            request = CloseRequest(handle=channel.handle)
            yield channel.socket.send_op(
                channel.data_address, message=request,
                payload_size=wire_size(request))
            self.stats.packets_sent += 1
            # Best-effort: one short wait for the reply, no retries.
            yield from channel.socket.recv_wait(
                self.open_timeout_s,
                predicate=lambda d: isinstance(d.message, CloseReply))
        for channel in self.channels:
            channel.close()
        self._closed = True

    # -- read path --------------------------------------------------------------------

    def read(self, offset: int, length: int):
        """Process method: returns the bytes [offset, offset+length).

        Reads past end of object are truncated (Unix semantics); holes read
        as zeros.  A single failed data agent is masked via parity.
        """
        self._require_open()
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        length = max(0, min(length, self._size - offset))
        if length == 0:
            yield self.env.timeout(0.0)
            return b""

        op = self._new_op("r")
        self._emit(op, "read-begin", logical_offset=offset,
                   logical_bytes=length)
        # Logical offset -> payload of every piece: the agents' immutable
        # DATA payloads, joined once in offset order.
        pieces: dict = {}
        degraded: list = []  # chunks on failed agents
        segments = self.layout.agent_segments(offset, length)
        readers = []
        for agent_index, chunks in segments.items():
            channel = self.data_channels[agent_index]
            if channel.failed:
                degraded.extend(chunks)
                continue
            readers.append(self.env.process(
                self._read_agent(channel, chunks, pieces, op)))
        if readers:
            yield self.env.all_of(readers)
            for process in readers:
                failed_chunks = process.value
                degraded.extend(failed_chunks)
        if degraded:
            yield from self._read_degraded(degraded, pieces, op)
        self._emit(op, "read-end")
        return b"".join([pieces[start] for start in sorted(pieces)])

    def _read_agent(self, channel: _Channel, chunks, pieces: dict,
                    op: Optional[str] = None):
        """One agent's reader: single outstanding request, resubmit on loss.

        Adds each packet's payload to ``pieces`` at its logical offset.
        Returns the chunks *not* retrieved (empty normally; the remainder
        if the agent fails mid-read).
        """
        pending = list(chunks)
        while pending:
            chunk = pending[0]
            position = 0
            while position < chunk.length:
                span = min(self.packet_size, chunk.length - position)
                piece_offset = chunk.agent_offset + position
                payload = yield from self._fetch_packet(
                    channel, piece_offset, span)
                if payload is None:
                    channel.failed = True
                    # The remainder of this chunk goes back to degraded
                    # reading; report only the bytes actually placed.
                    if position:
                        done, rest = chunk.split(position)
                        if op is not None:
                            self._emit(op, "read-data", agent=channel.index,
                                       logical_offset=done.logical_offset,
                                       nbytes=done.length)
                        return [rest] + pending[1:]
                    return pending
                pieces[chunk.logical_offset + position] = payload
                position += span
            if op is not None:
                self._emit(op, "read-data", agent=channel.index,
                           logical_offset=chunk.logical_offset,
                           nbytes=chunk.length)
            pending.pop(0)
        return []

    def _fetch_packet(self, channel: _Channel, offset: int, length: int):
        """Request one packet; retry on timeout; None once the agent is
        declared dead."""
        request = ReadRequest(handle=channel.handle,
                              seq=channel.next_seq(),
                              offset=offset, length=length)
        # Drop stale duplicates of older sequence numbers.
        if channel.socket.pending:
            channel.socket.purge(
                lambda d: isinstance(d.message, DataPacket)
                and d.message.seq < request.seq)
        for attempt in range(self.max_retries):
            yield channel.socket.send_op(
                channel.data_address, message=request,
                payload_size=wire_size(request))
            self.stats.packets_sent += 1
            if attempt:
                self.stats.read_retransmits += 1
            datagram = yield from channel.socket.recv_wait(
                self.read_timeout_s,
                predicate=lambda d: isinstance(d.message, DataPacket)
                and d.message.seq == request.seq)
            if datagram is not None:
                self.stats.packets_received += 1
                payload = datagram.message.payload
                if len(payload) < length:
                    # Short read at agent EOF: the rest is zeros (hole).
                    # Pad into a preallocated buffer; slice assignment
                    # accepts any bytes-like payload without flattening
                    # it into an intermediate copy first.
                    padded = bytearray(length)
                    padded[:len(payload)] = payload
                    payload = padded
                return payload
        return None

    # -- degraded read ------------------------------------------------------------------

    def _read_degraded(self, chunks, pieces: dict,
                       op: Optional[str] = None):
        """Serve chunks of failed agents by XOR reconstruction.

        Adds each chunk's bytes to ``pieces`` as a view of its rebuilt
        unit.
        """
        if not self.parity:
            failed = sorted({self.data_channels[c.agent].agent_host
                             for c in chunks})
            raise AgentFailure(
                f"agents {failed} failed and no redundancy is configured")
        if self.parity_channel.failed:
            raise AgentFailure("parity agent failed alongside a data agent")
        rebuilt: dict[tuple[int, int], bytes] = {}
        for chunk in chunks:
            key = (chunk.stripe, chunk.agent)
            unit = rebuilt.get(key)
            if unit is None:
                unit = yield from self._reconstruct_unit(chunk.stripe,
                                                         chunk.agent, op)
                rebuilt[key] = unit
            within = chunk.agent_offset % self.layout.striping_unit
            piece = memoryview(unit)[within:within + chunk.length]
            pieces[chunk.logical_offset] = piece
            if op is not None:
                self._emit(op, "read-data", agent=chunk.agent,
                           logical_offset=chunk.logical_offset,
                           nbytes=len(piece))

    def _reconstruct_unit(self, stripe: int, missing_agent: int,
                          op: Optional[str] = None):
        """Fetch stripe siblings plus parity and XOR the lost unit back."""
        unit = self.layout.striping_unit
        unit_offset = self.layout.agent_unit_offset(stripe)
        survivors: list[bytes] = []
        for channel in self.data_channels:
            if channel.index == missing_agent:
                continue
            if channel.failed:
                raise AgentFailure(
                    "two data agents down: single-failure redundancy "
                    "cannot reconstruct")
            payload = yield from self._fetch_packet(channel, unit_offset, unit)
            if payload is None:
                raise AgentFailure(
                    f"agent {channel.agent_host} failed during reconstruction")
            survivors.append(payload)
        parity_payload = yield from self._fetch_packet(
            self.parity_channel, unit_offset, unit)
        if parity_payload is None:
            raise AgentFailure("parity agent failed during reconstruction")
        self.stats.reconstructed_units += 1
        rebuilt = reconstruct_unit(survivors, parity_payload, unit)
        if self.env._transfer_monitors:
            # Emitted with op=None from rebuild paths too: the exact-size
            # invariant holds regardless of the owning operation.
            self.env._notify_transfer(
                "reconstruct-unit", op=op, stripe=stripe,
                agent=missing_agent, nbytes=len(rebuilt), unit_size=unit)
        return rebuilt

    # -- write path --------------------------------------------------------------------

    def write(self, offset: int, data: bytes):
        """Process method: write ``data`` at logical ``offset``.

        With parity on, stripe images are completed (pre-reading old bytes
        of partially covered stripes) so the parity units stay consistent;
        a single failed data agent is tolerated — its units are simply not
        sent, and parity makes them recoverable.
        """
        self._require_open()
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if not data:
            yield self.env.timeout(0.0)
            return 0
        data = _frozen(data)

        op = self._new_op("w")
        self._emit(op, "write-begin", logical_offset=offset,
                   logical_bytes=len(data))
        if self.parity:
            yield from self._write_with_parity(offset, data, op)
        else:
            yield from self._write_plain(offset, data, op)
        self._emit(op, "write-end")
        self._size = max(self._size, offset + len(data))
        return len(data)

    def _write_plain(self, offset: int, data: bytes,
                     op: Optional[str] = None):
        writers = []
        for agent_index, chunks in self.layout.agent_segments(
                offset, len(data)).items():
            channel = self.data_channels[agent_index]
            if channel.failed:
                raise AgentFailure(
                    f"agent {channel.agent_host} failed and no redundancy "
                    "is configured")
            region_offset, region = self._assemble_region(chunks, data, offset)
            self._emit(op, "write-region", agent=channel.index,
                       region_offset=region_offset, nbytes=len(region))
            writers.append(self.env.process(
                self._write_agent(channel, region_offset, region, op)))
        yield self.env.all_of(writers)

    def _write_with_parity(self, offset: int, data: bytes,
                           op: Optional[str] = None):
        layout = self.layout
        unit = layout.striping_unit
        first_stripe = layout.stripe_of(offset)
        last_stripe = layout.stripe_of(offset + len(data) - 1)
        span_start, _ = layout.stripe_bounds(first_stripe)
        _, span_end = layout.stripe_bounds(last_stripe)

        # Build the full image of every touched stripe.  Old bytes are
        # needed only where the write does not cover a stripe completely.
        image = bytearray(span_end - span_start)
        fully_covered = (offset == span_start and
                         offset + len(data) == span_end)
        if not fully_covered and self._size > span_start:
            old_length = min(span_end, self._size) - span_start
            old = yield from self.read(span_start, old_length)
            image[:len(old)] = old
        image[offset - span_start:offset - span_start + len(data)] = data

        writers = []
        for agent_index, chunks in layout.agent_segments(
                offset, len(data)).items():
            channel = self.data_channels[agent_index]
            if channel.failed:
                # Parity will cover this agent's units.
                self._emit(op, "write-skip", agent=channel.index,
                           nbytes=sum(chunk.length for chunk in chunks))
                continue
            region_offset, region = self._assemble_region(chunks, data, offset)
            self._emit(op, "write-region", agent=channel.index,
                       region_offset=region_offset, nbytes=len(region))
            writers.append(self.env.process(
                self._write_agent(channel, region_offset, region, op)))

        # Parity units, one per touched stripe, computed from the images.
        # The XOR kernel consumes memoryview slices of the stripe image
        # directly — no per-unit bytes() copies — and the units go out as
        # the parity agent's region without being joined.
        num_stripes = last_stripe - first_stripe + 1
        image_view = memoryview(image)
        parity_units = []
        for stripe in range(first_stripe, last_stripe + 1):
            base = stripe * layout.stripe_width - span_start
            units = [image_view[base + a * unit: base + (a + 1) * unit]
                     for a in range(layout.num_agents)]
            parity_units.append(memoryview(compute_parity(units, unit)))
        parity_region = _Region(parity_units)
        parity_offset = layout.agent_unit_offset(first_stripe)
        if self.parity_channel.failed:
            if self.failed_agents != [self.parity_channel.index]:
                raise AgentFailure("cannot write: data and parity agents down")
        else:
            self._emit(op, "write-parity", agent=self.parity_channel.index,
                       nbytes=len(parity_region),
                       expected_bytes=num_stripes * unit)
            writers.append(self.env.process(self._write_agent(
                self.parity_channel, parity_offset, parity_region, op)))
        if writers:
            yield self.env.all_of(writers)

    def _assemble_region(self, chunks, data: bytes, base_offset: int):
        """One agent's chunks as its contiguous file region (zero-copy).

        Returns ``(region_offset, region)``: a :class:`_Region` whose
        parts are views of ``data``, one per chunk.  Nothing is copied
        here; packets are cut from the views as they are sent.
        """
        chunks = sorted(chunks, key=lambda c: c.agent_offset)
        region_offset = chunks[0].agent_offset
        view = memoryview(data)
        parts = []
        expected = region_offset
        for chunk in chunks:
            if chunk.agent_offset != expected:  # pragma: no cover - layout
                raise TransferError("agent region unexpectedly discontiguous")
            start = chunk.logical_offset - base_offset
            parts.append(view[start:start + chunk.length])
            expected += chunk.length
        return region_offset, _Region(parts)

    def _write_agent(self, channel: _Channel, region_offset: int,
                     payload: _Region, op: Optional[str] = None):
        """§3.1 write: announce, stream, await ACK, retransmit NAKed."""
        op_id = channel.next_op()
        # Drop replies left over from earlier ops on this channel: a
        # duplicated ACK/NAK that arrived after its op completed would
        # otherwise sit in the buffer forever, crowding out live ones.
        channel.socket.purge(
            lambda d: isinstance(d.message, (WriteAck, WriteNak))
            and d.message.op_id < op_id)
        request = WriteRequest(
            handle=channel.handle, op_id=op_id, offset=region_offset,
            length=len(payload), packet_size=self.packet_size)
        yield channel.socket.send_op(
            channel.data_address, message=request,
            payload_size=wire_size(request))
        self.stats.packets_sent += 1
        yield self._stream_packets(channel, request, payload,
                                   range(request.expected_packets), op)

        for _ in range(self.max_retries):
            datagram = yield from channel.socket.recv_wait(
                self.ack_timeout_s,
                predicate=lambda d: isinstance(d.message, (WriteAck, WriteNak))
                and d.message.op_id == op_id)
            if datagram is None:
                self.stats.ack_timeouts += 1
                # Status query: re-send the announcement.
                yield channel.socket.send_op(
                    channel.data_address, message=request,
                    payload_size=wire_size(request))
                self.stats.packets_sent += 1
                continue
            message = datagram.message
            self.stats.packets_received += 1
            if isinstance(message, WriteAck):
                return
            self.stats.naks_received += 1
            self.stats.write_retransmits += len(message.missing)
            yield self._stream_packets(channel, request, payload,
                                       message.missing, op)
        channel.failed = True
        raise TransferError(
            f"agent {channel.agent_host} never acknowledged write op {op_id}")

    def _stream_packets(self, channel: _Channel, request: WriteRequest,
                        payload: _Region, indices,
                        op: Optional[str] = None) -> "_StreamPackets":
        """Send the numbered packets 'as fast as it can' (§3.1), separated
        by the prototype's small wait loop when configured.

        Returns a started callback pump (yieldable event); this is the
        write path's hottest loop, dispatched without a generator."""
        return _StreamPackets(self, channel, request, payload, indices, op)

    # -- health probing -------------------------------------------------------------------

    def probe_agents(self, timeout_s: float = 0.1, attempts: int = 2):
        """Process method: actively check which agents still answer.

        Sends a STAT for the object to every channel's control port and
        marks unresponsive agents failed — proactive detection instead of
        waiting for a data-path timeout.  Returns the (possibly updated)
        list of failed agent indices.
        """
        from .agent_protocol import StatReply, StatRequest
        from .namespace import _request_ids
        for channel in self.channels:
            if channel.failed:
                continue
            alive = False
            for _ in range(attempts):
                request = StatRequest(file_name=self.object_name,
                                      request_id=next(_request_ids))
                yield channel.socket.send_op(
                    channel.control_address, message=request,
                    payload_size=wire_size(request))
                self.stats.packets_sent += 1
                datagram = yield from channel.socket.recv_wait(
                    timeout_s,
                    predicate=lambda d: isinstance(d.message, StatReply)
                    and d.message.request_id == request.request_id)
                if datagram is not None:
                    self.stats.packets_received += 1
                    alive = True
                    break
            if not alive:
                channel.failed = True
        return self.failed_agents

    # -- rebuild ------------------------------------------------------------------------

    def rebuild_agent(self, index: int):
        """Process method: rewrite a replaced agent's file from redundancy.

        After the failed agent's host is repaired (a fresh, empty file
        system), reconstruct every unit it should hold and write them back,
        then clear the failure mark.
        """
        channel = self.channels[index]
        if not self.parity:
            raise AgentFailure("rebuild requires redundancy")
        if index == self.parity_channel.index:
            yield from self._rebuild_parity()
            return
        unit = self.layout.striping_unit
        agent_length = self.layout.agent_lengths(self._size)[index]
        channel.failed = False
        yield from self._open_channel(channel, create=True, truncate=True)
        position = 0
        while position < agent_length:
            stripe = position // unit
            rebuilt = yield from self._reconstruct_unit(stripe, index)
            span = min(unit, agent_length - position)
            yield from self._write_agent(
                channel, position, _Region([memoryview(rebuilt)[:span]]))
            position += span
        channel.local_size = agent_length

    def _rebuild_parity(self):
        channel = self.parity_channel
        unit = self.layout.striping_unit
        channel.failed = False
        yield from self._open_channel(channel, create=True, truncate=True)
        if self._size == 0:
            return
        last_stripe = self.layout.stripe_of(self._size - 1)
        for stripe in range(last_stripe + 1):
            unit_offset = self.layout.agent_unit_offset(stripe)
            units = []
            for data_channel in self.data_channels:
                payload = yield from self._fetch_packet(
                    data_channel, unit_offset, unit)
                if payload is None:
                    raise AgentFailure(
                        f"agent {data_channel.agent_host} failed during "
                        "parity rebuild")
                units.append(payload)
            parity = compute_parity(units, unit)
            yield from self._write_agent(channel, unit_offset,
                                         _Region([memoryview(parity)]))

    # -- helpers -------------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed(self.object_name)
        if not self._opened:
            raise SwiftUsageError("open() the object before reading/writing")


class SwiftUsageError(RuntimeError):
    """Library misuse (calling read/write before open)."""


class _StreamPackets(CallbackProcess):
    """Callback pump for :meth:`DistributionAgent._stream_packets`.

    Packet for packet the generator's sequence: cut the packet from the
    region (a view of the caller's buffer unless it straddles two
    chunks), build the :class:`WriteData`, emit the ledger record, send,
    count, then the optional inter-packet gap.  Started immediately, so
    the first packet's send-cost draw lands exactly where the inline
    ``yield from`` used to execute.
    """

    __slots__ = ("dist", "channel", "request", "payload", "indices",
                 "op", "_pos")

    def __init__(self, dist: DistributionAgent, channel: _Channel,
                 request: WriteRequest, payload: _Region, indices,
                 op: Optional[str]):
        self.dist = dist
        self.channel = channel
        self.request = request
        self.payload = payload
        self.indices = list(indices)
        self.op = op
        self._pos = 0
        super().__init__(dist.env)

    def _start(self, value):
        self._next_packet()

    def _next_packet(self):
        if self._pos >= len(self.indices):
            self._finish()
            return
        dist = self.dist
        channel = self.channel
        request = self.request
        index = self.indices[self._pos]
        start = index * dist.packet_size
        piece = self.payload.piece(start, dist.packet_size)
        packet = WriteData(handle=channel.handle, op_id=request.op_id,
                           index=index, offset=request.offset + start,
                           payload=piece)
        if self.op is not None:
            dist._emit(self.op, "wire-data", agent=channel.index,
                       index=index, payload_bytes=len(piece))
        self.wait(channel.socket.send_op(channel.data_address,
                                         message=packet,
                                         payload_size=wire_size(packet)),
                  self._sent)

    def _sent(self, value):
        dist = self.dist
        dist.stats.packets_sent += 1
        self._pos += 1
        if dist.interpacket_gap_s:
            # The generator pauses after *every* packet, the last included.
            self.wait_timeout(dist.interpacket_gap_s, self._gap_done)
            return
        self._next_packet()

    def _gap_done(self, value):
        self._next_packet()
