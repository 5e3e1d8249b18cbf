"""Declarative spec of the Swift transfer protocol (docs/PROTOCOL.md).

Three views of the same protocol:

* :data:`EXCHANGES` — the request/reply vocabulary: which message class
  the client sends, what the agent may answer, on which port, and whether
  the client's wait must be timeout-guarded (every wait over the lossy
  datagram transport must be).
* :data:`CLIENT_MACHINES` — the client-side state machines for the read,
  write (ACK/NAK/retransmit) and control-port paths, as (state, event,
  state) transitions.  Events are ``send <Msg>``, ``recv <Msg>``,
  ``timeout`` or ``internal`` (a silent step).
* :data:`AGENT_MACHINES` — the agent-side machines: the read server, the
  write server (packet collection, the stall watchdog, the status-query
  re-ACK), the control-port server for the namespace operations, and the
  per-file session server that handles CLOSE.

:data:`MACHINES` is the union.  Every machine declares which ``side`` of
the wire it models.

:mod:`repro.check.protocol` verifies the implementation against the
exchanges and the machines against themselves (reachability, no trap
states, timeout edges wherever a *reply* is awaited — servers may wait
for requests forever).  The filters that let each side drop a message
it has no edge for (request_id/op_id/seq predicates, the unknown-op
guard) are exercised on the real stack by the injected-schedule tests
of ``tests/core/test_protocol_edges.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Exchange", "Transition", "StateMachine", "EXCHANGES",
           "CLIENT_MACHINES", "AGENT_MACHINES", "MACHINES", "MACHINE_PAIRS",
           "spec_message_names", "reply_message_names", "machine_by_name"]


@dataclass(frozen=True)
class Exchange:
    """One request/reply pair of the protocol vocabulary."""

    request: str
    replies: tuple[str, ...]
    port: str                   # "control" or "private"
    timeout_required: bool      # client wait must be timeout-guarded
    note: str = ""


@dataclass(frozen=True)
class Transition:
    """One edge of a protocol state machine."""

    source: str
    event: str                  # "send X" | "recv X" | "timeout" | "internal"
    target: str


@dataclass(frozen=True)
class StateMachine:
    """A named machine with an initial state and terminal states.

    ``side`` is ``"client"`` or ``"agent"``.
    """

    name: str
    initial: str
    terminals: frozenset[str]
    transitions: tuple[Transition, ...]
    side: str = "client"

    @property
    def states(self) -> frozenset[str]:
        found = {self.initial} | set(self.terminals)
        for transition in self.transitions:
            found.add(transition.source)
            found.add(transition.target)
        return frozenset(found)

    @property
    def resting(self) -> frozenset[str]:
        """States where the machine may legitimately sit forever.

        Terminals plus the initial state: a server's listen state is a
        valid place to rest even though it is not "done".
        """
        return self.terminals | {self.initial}

    def edges_from(self, state: str) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.source == state)


#: The protocol vocabulary, straight from docs/PROTOCOL.md.
EXCHANGES: tuple[Exchange, ...] = (
    Exchange("OpenRequest", ("OpenReply",), "control", True,
             "idempotent via request_id; retried on timeout"),
    Exchange("ReadRequest", ("DataPacket",), "private", True,
             "one outstanding per agent; resubmitted with the same seq"),
    Exchange("WriteRequest", ("WriteAck", "WriteNak"), "private", True,
             "re-send doubles as a status query"),
    Exchange("WriteData", (), "private", False,
             "streamed as fast as possible; no per-packet reply"),
    Exchange("CloseRequest", ("CloseReply",), "private", True,
             "best-effort: one short wait, no retries"),
    Exchange("RemoveRequest", ("RemoveReply",), "control", True),
    Exchange("StatRequest", ("StatReply",), "control", True),
    Exchange("ListRequest", ("ListReply",), "control", True),
)

#: §3.1 read path: single outstanding request, resubmit on loss.  Stale
#: data packets (older seq) are purged and filtered out.
READ_MACHINE = StateMachine(
    name="read",
    initial="IDLE",
    terminals=frozenset({"DONE"}),
    transitions=(
        Transition("IDLE", "send ReadRequest", "WAIT_DATA"),
        Transition("WAIT_DATA", "recv DataPacket", "DONE"),
        Transition("WAIT_DATA", "timeout", "IDLE"),
    ),
    side="client",
)

#: §3.1 write path: announce, stream, await ACK; NAK → retransmit; ACK
#: timeout → status query (a re-sent WRITE-REQ).  Replies for other ops
#: are filtered out by op_id.
WRITE_MACHINE = StateMachine(
    name="write",
    initial="IDLE",
    terminals=frozenset({"DONE"}),
    transitions=(
        Transition("IDLE", "send WriteRequest", "ANNOUNCED"),
        Transition("ANNOUNCED", "send WriteData", "STREAMING"),
        Transition("STREAMING", "send WriteData", "STREAMING"),
        Transition("STREAMING", "recv WriteAck", "DONE"),
        Transition("STREAMING", "recv WriteNak", "STREAMING"),
        Transition("STREAMING", "timeout", "QUERY"),
        Transition("QUERY", "send WriteRequest", "STREAMING"),
    ),
    side="client",
)


def _client_control_machine(name: str, request: str, reply: str,
                            best_effort: bool = False) -> StateMachine:
    """A control-port client: send, await the reply, retry on timeout.

    ``best_effort`` models CLOSE: one short wait, a timeout gives up
    (DONE) instead of retrying.  Duplicate replies are filtered by
    request_id (handle for CLOSE).
    """
    return StateMachine(
        name=name,
        initial="IDLE",
        terminals=frozenset({"DONE"}),
        transitions=(
            Transition("IDLE", f"send {request}", "WAIT"),
            Transition("WAIT", f"recv {reply}", "DONE"),
            Transition("WAIT", "timeout", "DONE" if best_effort else "IDLE"),
        ),
        side="client",
    )


OPEN_MACHINE = _client_control_machine("open", "OpenRequest", "OpenReply")
CLOSE_MACHINE = _client_control_machine("close", "CloseRequest", "CloseReply",
                                        best_effort=True)
REMOVE_MACHINE = _client_control_machine("remove", "RemoveRequest",
                                         "RemoveReply")
STAT_MACHINE = _client_control_machine("stat", "StatRequest", "StatReply")
LIST_MACHINE = _client_control_machine("list", "ListRequest", "ListReply")

CLIENT_MACHINES: tuple[StateMachine, ...] = (
    READ_MACHINE, WRITE_MACHINE, OPEN_MACHINE, CLOSE_MACHINE,
    REMOVE_MACHINE, STAT_MACHINE, LIST_MACHINE,
)

#: Agent read server: stateless request/reply, re-serves duplicates.
READ_SERVER_MACHINE = StateMachine(
    name="read-server",
    initial="LISTEN",
    terminals=frozenset({"LISTEN"}),
    transitions=(
        Transition("LISTEN", "recv ReadRequest", "SERVING"),
        Transition("SERVING", "send DataPacket", "LISTEN"),
    ),
    side="agent",
)

#: Agent write server: collect announced packets; the stall watchdog
#: NAKs the missing indices; a duplicate WRITE-REQ is a status query
#: (NAK while incomplete, re-ACK once applied); late/unknown-op data is
#: dropped by the unknown-op and applied guards, in states without an
#: edge too (IDLE after a restart).
WRITE_SERVER_MACHINE = StateMachine(
    name="write-server",
    initial="IDLE",
    terminals=frozenset({"APPLIED"}),
    transitions=(
        Transition("IDLE", "recv WriteRequest", "COLLECT"),
        Transition("COLLECT", "recv WriteData", "DECIDE"),
        Transition("DECIDE", "internal", "COLLECT"),
        Transition("DECIDE", "send WriteAck", "APPLIED"),
        Transition("COLLECT", "timeout", "NAKKING"),
        Transition("COLLECT", "recv WriteRequest", "NAKKING"),
        Transition("NAKKING", "send WriteNak", "COLLECT"),
        Transition("APPLIED", "recv WriteRequest", "REACK"),
        Transition("REACK", "send WriteAck", "APPLIED"),
        Transition("APPLIED", "recv WriteData", "APPLIED"),
    ),
    side="agent",
)


def _agent_server_machine(name: str, request: str, reply: str) -> StateMachine:
    """A control-port server: serve one request, reply, listen again."""
    return StateMachine(
        name=name,
        initial="LISTEN",
        terminals=frozenset({"LISTEN"}),
        transitions=(
            Transition("LISTEN", f"recv {request}", "REPLYING"),
            Transition("REPLYING", f"send {reply}", "LISTEN"),
        ),
        side="agent",
    )


OPEN_SERVER_MACHINE = _agent_server_machine("open-server", "OpenRequest",
                                            "OpenReply")
REMOVE_SERVER_MACHINE = _agent_server_machine("remove-server", "RemoveRequest",
                                              "RemoveReply")
STAT_SERVER_MACHINE = _agent_server_machine("stat-server", "StatRequest",
                                            "StatReply")
LIST_SERVER_MACHINE = _agent_server_machine("list-server", "ListRequest",
                                            "ListReply")

#: The per-file session server: CLOSE expires the handle and releases
#: the private port; a duplicate CLOSE hits a closed port and is dropped
#: by the host.
SESSION_SERVER_MACHINE = StateMachine(
    name="session-server",
    initial="OPEN",
    terminals=frozenset({"CLOSED"}),
    transitions=(
        Transition("OPEN", "recv CloseRequest", "CLOSING"),
        Transition("CLOSING", "send CloseReply", "CLOSED"),
    ),
    side="agent",
)

AGENT_MACHINES: tuple[StateMachine, ...] = (
    READ_SERVER_MACHINE, WRITE_SERVER_MACHINE, OPEN_SERVER_MACHINE,
    REMOVE_SERVER_MACHINE, STAT_SERVER_MACHINE, LIST_SERVER_MACHINE,
    SESSION_SERVER_MACHINE,
)

MACHINES: tuple[StateMachine, ...] = CLIENT_MACHINES + AGENT_MACHINES

#: Which client machine talks to which agent machine: every send of
#: one side must have a matching receive on the other.
MACHINE_PAIRS: tuple[tuple[str, str], ...] = (
    ("read", "read-server"),
    ("write", "write-server"),
    ("open", "open-server"),
    ("close", "session-server"),
    ("remove", "remove-server"),
    ("stat", "stat-server"),
    ("list", "list-server"),
)


def machine_by_name(name: str) -> StateMachine:
    """Look a machine up by its spec name."""
    for machine in MACHINES:
        if machine.name == name:
            return machine
    raise KeyError(name)


def spec_message_names() -> frozenset[str]:
    """Every message class name the spec mentions."""
    names: set[str] = set()
    for exchange in EXCHANGES:
        names.add(exchange.request)
        names.update(exchange.replies)
    for machine in MACHINES:
        for transition in machine.transitions:
            if transition.event.startswith(("send ", "recv ")):
                names.add(transition.event.split(" ", 1)[1])
    return frozenset(names)


def reply_message_names() -> frozenset[str]:
    """Message names that are replies in some exchange.

    A state waiting to ``recv`` one of these is a *reply wait* over the
    lossy transport and needs a timeout edge; waiting for a request
    (a server's listen state) may legitimately block forever.
    """
    return frozenset(name for exchange in EXCHANGES
                     for name in exchange.replies)
