"""Wire messages of the light-weight data transfer protocol (§3.1).

The protocol runs over unreliable datagrams:

* ``OPEN`` to an agent's well-known port spawns a secondary handler with a
  private port; all further traffic for that file uses the private port.
* ``READ-REQ`` asks for one packet; the agent answers with one ``DATA``.
  The client keeps exactly one outstanding request per agent and resubmits
  on loss — no acknowledgements needed.
* ``WRITE-REQ`` announces an operation (id, offset, length, packet size) so
  the agent "can calculate which packets are expected"; the client then
  streams ``WRITE-DATA`` packets as fast as it can.  The agent answers
  ``WRITE-ACK`` when everything arrived or ``WRITE-NAK`` listing the missing
  packet indices.  Re-sending ``WRITE-REQ`` for a known operation is a
  status query (used by the client after an ack timeout).
* ``CLOSE`` expires the handle, releases the private port.

Message sizes model the prototype's small binary headers: control messages
are 64 bytes on the wire; data-bearing messages are payload plus a 32-byte
header (the UDP/IP header is added by the socket layer).

Every message is a slotted dataclass that compares and hashes by value.
None is frozen: one is built per packet, and a frozen dataclass sets each
field through ``object.__setattr__``, where these constructors assign.
Nothing mutates a message once it is sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CONTROL_SIZE_BYTES",
    "DATA_HEADER_SIZE_BYTES",
    "OpenRequest",
    "OpenReply",
    "ReadRequest",
    "DataPacket",
    "WriteRequest",
    "WriteData",
    "WriteAck",
    "WriteNak",
    "CloseRequest",
    "CloseReply",
    "RemoveRequest",
    "RemoveReply",
    "StatRequest",
    "StatReply",
    "ListRequest",
    "ListReply",
    "wire_size",
]

#: Wire bytes of a control message (before UDP/IP headers).
CONTROL_SIZE_BYTES = 64
#: Header bytes carried by each data-bearing packet.
DATA_HEADER_SIZE_BYTES = 32


@dataclass(slots=True, unsafe_hash=True)
class OpenRequest:
    """Open (and optionally create) a file on an agent."""

    file_name: str
    create: bool
    truncate: bool
    request_id: int


@dataclass(slots=True, unsafe_hash=True)
class OpenReply:
    """Agent's answer: the private port and the local file size."""

    request_id: int
    ok: bool
    handle: int = -1
    private_port: int = -1
    local_size: int = 0
    error: str = ""


@dataclass(slots=True, unsafe_hash=True)
class ReadRequest:
    """Ask for one packet of the file."""

    handle: int
    seq: int
    offset: int
    length: int


@dataclass(slots=True, unsafe_hash=True)
class DataPacket:
    """One packet of file data (the answer to a ReadRequest)."""

    handle: int
    seq: int
    offset: int
    payload: bytes


@dataclass(slots=True, unsafe_hash=True)
class WriteRequest:
    """Announce a write operation (or query its status when re-sent)."""

    handle: int
    op_id: int
    offset: int
    length: int
    packet_size: int

    @property
    def expected_packets(self) -> int:
        """How many WRITE-DATA packets the agent should expect."""
        if self.length == 0:
            return 0
        return -(-self.length // self.packet_size)  # ceil division


@dataclass(slots=True, unsafe_hash=True)
class WriteData:
    """One packet of a write operation's data stream."""

    handle: int
    op_id: int
    index: int
    offset: int
    payload: bytes


@dataclass(slots=True, unsafe_hash=True)
class WriteAck:
    """Every expected packet arrived; the data is accepted."""

    handle: int
    op_id: int


@dataclass(slots=True, unsafe_hash=True)
class WriteNak:
    """Some packets are missing; the client must retransmit these indices."""

    handle: int
    op_id: int
    missing: tuple[int, ...] = field(default_factory=tuple)


@dataclass(slots=True, unsafe_hash=True)
class RemoveRequest:
    """Unlink a file on the agent (namespace op, control port)."""

    file_name: str
    request_id: int


@dataclass(slots=True, unsafe_hash=True)
class RemoveReply:
    """Acknowledgement of a remove (idempotent: ok even if absent)."""

    request_id: int
    existed: bool


@dataclass(slots=True, unsafe_hash=True)
class StatRequest:
    """Ask for a file's local size (namespace op, control port)."""

    file_name: str
    request_id: int


@dataclass(slots=True, unsafe_hash=True)
class StatReply:
    """The agent's answer to a stat."""

    request_id: int
    exists: bool
    local_size: int = 0


@dataclass(slots=True, unsafe_hash=True)
class ListRequest:
    """Ask for the agent's file names (namespace op, control port)."""

    request_id: int


@dataclass(slots=True, unsafe_hash=True)
class ListReply:
    """The agent's directory listing."""

    request_id: int
    names: tuple[str, ...]


@dataclass(slots=True, unsafe_hash=True)
class CloseRequest:
    """Expire the handle and release the private port."""

    handle: int


@dataclass(slots=True, unsafe_hash=True)
class CloseReply:
    """Acknowledgement of a close."""

    handle: int


def wire_size(message) -> int:
    """Bytes this message occupies on the wire (excluding UDP/IP headers)."""
    if isinstance(message, (DataPacket, WriteData)):
        return DATA_HEADER_SIZE_BYTES + len(message.payload)
    if isinstance(message, WriteNak):
        # 4 bytes per missing index on top of the control header.
        return CONTROL_SIZE_BYTES + 4 * len(message.missing)
    if isinstance(message, ListReply):
        return CONTROL_SIZE_BYTES + sum(len(name) + 1
                                        for name in message.names)
    return CONTROL_SIZE_BYTES
