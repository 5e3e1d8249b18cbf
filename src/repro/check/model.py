"""Explicit-state bounded model checker for the transfer protocol.

``repro check --model`` composes each client state machine from
:mod:`repro.check.spec` with its agent-side peer and an adversarial
network (:mod:`repro.check.adversary`), then explores *every* reachable
interleaving breadth-first up to a depth bound.  Two model families run:

* :class:`PairModel` — the symbolic product of a (client, agent)
  machine pair.  Messages are bare class names; the network may drop,
  duplicate and reorder them, and crash/restart the agent.  Checked:
  no deadlock (a stuck non-resting composite state), no unhandled
  message (a delivery the receiving side neither accepts nor is
  spec-licensed to ignore), and bounded liveness (from every reachable
  state the client can still reach DONE or a clean ABORT within the
  retransmit budget).
* :class:`WriteModel` / :class:`ReadModel` — semantic refinements of
  the write and read paths with real byte accounting: disk cells carry
  generation tags, agent op-state is keyed by op id, and stale messages
  from a prior session (old op/seq) join the adversary's arsenal.
  Checked: the conservation contract of ``check/conserve.py`` — no byte
  lost (client DONE implies every cell holds current-generation data)
  and no byte duplicated (no cell written twice, no write applied
  twice).

Because every budget (retransmits, drops, duplicates, crashes, stale
injections, buffer capacity, packets) is finite, the state space is
finite; the default depth bound is a safety valve and the checker
reports whether the space was exhausted.  Counterexamples are minimal
by construction (BFS) and print as numbered message schedules ending in
the violated invariant.

Mutation hooks (:class:`SemanticFlags`) re-introduce the implementation
guards' absence — accept unknown-op data, trust any reply, re-apply on
status query — so tests can demonstrate that removing a guard produces
a counterexample trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .adversary import (
    AdversaryBudget,
    channel_add,
    channel_items,
    channel_remove,
)
from .findings import Finding
from .spec import MACHINE_PAIRS, StateMachine, machine_by_name

__all__ = ["MODEL_RULES", "ModelConfig", "SemanticFlags", "PairModel",
           "WriteModel", "ReadModel", "Violation", "ExploreResult",
           "ScenarioStats", "ModelStats", "explore", "check_model",
           "scenario_names", "build_scenario"]

#: Synthetic client states: the retransmit budget ran out (clean abort),
#: and the crashed agent (volatile state lost, network survives).
ABORTED = "#ABORTED"
DEAD = "#DEAD"

_MAX_VIOLATIONS_PER_SCENARIO = 5


@dataclass(frozen=True)
class Violation:
    """One invariant violation with its minimal counterexample."""

    invariant: str              # deadlock | unhandled | livelock | safety
    message: str
    trace: tuple[str, ...]      # message schedule from the initial state

    def format(self) -> str:
        lines = [f"{self.message}"]
        lines.append(f"  counterexample ({len(self.trace)} steps):")
        for index, step in enumerate(self.trace, start=1):
            lines.append(f"    {index:2d}. {step}")
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """What one exploration saw."""

    states: int = 0
    transitions: int = 0
    depth_reached: int = 0
    exhausted: bool = True
    violations: list[Violation] = field(default_factory=list)


def explore(model, max_depth: int) -> ExploreResult:
    """Breadth-first exploration of ``model`` up to ``max_depth`` actions.

    ``model`` provides ``initial_state()``, ``successors(state)`` →
    ``(steps, violations)`` where steps are ``(label, next_state)``
    pairs, ``check_state(state)`` → ``(invariant, message)`` pairs, and
    ``is_resting(state)``.  BFS guarantees the first trace reaching a
    violation is minimal.
    """
    result = ExploreResult()
    initial = model.initial_state()
    parents: dict = {initial: (None, None)}
    depths: dict = {initial: 0}
    queue: deque = deque([initial])
    adjacency: dict = {}
    seen_violations: set[tuple[str, str]] = set()

    def trace_to(state) -> tuple[str, ...]:
        steps: list[str] = []
        while True:
            parent, label = parents[state]
            if parent is None:
                break
            steps.append(label)
            state = parent
        return tuple(reversed(steps))

    def report(invariant: str, message: str, trace: tuple[str, ...]) -> None:
        key = (invariant, message)
        if key in seen_violations:
            return
        if len(result.violations) >= _MAX_VIOLATIONS_PER_SCENARIO:
            return
        seen_violations.add(key)
        result.violations.append(Violation(invariant, message, trace))

    while queue:
        state = queue.popleft()
        depth = depths[state]
        result.states += 1
        result.depth_reached = max(result.depth_reached, depth)
        for invariant, message in model.check_state(state):
            report(invariant, message, trace_to(state))
        steps, step_violations = model.successors(state)
        for invariant, message, label in step_violations:
            report(invariant, message, trace_to(state) + (label,))
        if not steps and not model.is_resting(state):
            report("deadlock", "deadlock: no action enabled in a "
                   "non-resting composite state", trace_to(state))
        adjacency[state] = tuple(successor for _, successor in steps)
        result.transitions += len(steps)
        if depth >= max_depth:
            if any(successor not in parents for _, successor in steps):
                result.exhausted = False
            continue
        for label, successor in steps:
            if successor not in parents:
                parents[successor] = (state, label)
                depths[successor] = depth + 1
                queue.append(successor)

    if result.exhausted:
        _check_liveness(model, adjacency, parents, trace_to, report)
    return result


def _check_liveness(model, adjacency, parents, trace_to, report) -> None:
    """Bounded liveness: every state can still reach a resting state.

    Only meaningful over an exhausted space: reverse-reachability from
    the resting states; anything outside is a livelock.
    """
    reverse: dict = {state: [] for state in adjacency}
    for state, successors in adjacency.items():
        for successor in successors:
            reverse.setdefault(successor, []).append(state)
    can_rest = {state for state in adjacency if model.is_resting(state)}
    frontier = list(can_rest)
    while frontier:
        state = frontier.pop()
        for predecessor in reverse.get(state, ()):
            if predecessor not in can_rest:
                can_rest.add(predecessor)
                frontier.append(predecessor)
    stuck = [state for state in adjacency if state not in can_rest]
    if stuck:
        witness = min(stuck, key=lambda state: len(trace_to(state)))
        report("livelock", "livelock: transfer can neither complete nor "
               "cleanly abort from this state", trace_to(witness))


# -- symbolic pair composition ------------------------------------------------


class PairModel:
    """Symbolic product of a client machine, an agent machine and the
    adversarial network.

    State: ``(client_state, agent_state, c2a, a2c, retransmits,
    sends_left, naks_used, drops, dups, crashes)``.  Channels are
    multisets of message class names.  The client's retransmit budget
    turns exhausted timeouts into a clean ``#ABORTED`` terminal, exactly
    like the implementation raising ``TransferError``; the agent's
    watchdog timeout is bounded by ``max_naks`` rounds.  A ``transient``
    state holds the floor: deliveries to that side wait until it has
    taken one of its own edges (the implementation handles a datagram to
    completion before reading the next).
    """

    def __init__(self, client: StateMachine, agent: StateMachine,
                 budget: AdversaryBudget, retransmit_bound: int = 2,
                 send_bound: int = 2, max_naks: int = 2):
        if client.side != "client" or agent.side != "agent":
            raise ValueError("PairModel wants a (client, agent) machine pair")
        self.client = client
        self.agent = agent
        self.budget = budget
        self.retransmit_bound = retransmit_bound
        self.send_bound = send_bound
        self.max_naks = max_naks

    def initial_state(self):
        return (self.client.initial, self.agent.initial, (), (),
                0, self.send_bound, 0, 0, 0, 0)

    def is_resting(self, state) -> bool:
        client_state = state[0]
        return client_state in self.client.terminals or client_state == ABORTED

    def check_state(self, state):
        return ()

    def successors(self, state):
        (client_state, agent_state, c2a, a2c,
         retransmits, sends_left, naks_used, drops, dups, crashes) = state
        capacity = self.budget.channel_capacity
        steps: list[tuple[str, tuple]] = []
        violations: list[tuple[str, str, str]] = []

        def pack(client_state=client_state, agent_state=agent_state,
                 c2a=c2a, a2c=a2c, retransmits=retransmits,
                 sends_left=sends_left, naks_used=naks_used, drops=drops,
                 dups=dups, crashes=crashes):
            return (client_state, agent_state, c2a, a2c, retransmits,
                    sends_left, naks_used, drops, dups, crashes)

        # Client edges (sends, internals, timeouts).
        if client_state != ABORTED:
            for edge in self.client.edges_from(client_state):
                if edge.event.startswith("send "):
                    message = edge.event.split(" ", 1)[1]
                    if edge.target == edge.source and sends_left <= 0:
                        continue  # streaming budget spent; await feedback
                    remaining = (sends_left - 1
                                 if edge.target == edge.source else sends_left)
                    steps.append((
                        f"client: send {message}",
                        pack(client_state=edge.target,
                             c2a=channel_add(c2a, message, capacity),
                             sends_left=remaining)))
                elif edge.event == "internal":
                    steps.append((
                        "client: internal step",
                        pack(client_state=edge.target)))
                elif edge.event == "timeout":
                    if retransmits < self.retransmit_bound:
                        steps.append((
                            "client: timeout (retransmit "
                            f"{retransmits + 1}/{self.retransmit_bound})",
                            pack(client_state=edge.target,
                                 retransmits=retransmits + 1)))
                    else:
                        steps.append((
                            "client: timeout — retransmit bound reached, "
                            "abort cleanly",
                            pack(client_state=ABORTED)))

        # Agent edges.
        if agent_state != DEAD:
            for edge in self.agent.edges_from(agent_state):
                if edge.event.startswith("send "):
                    message = edge.event.split(" ", 1)[1]
                    steps.append((
                        f"agent: send {message}",
                        pack(agent_state=edge.target,
                             a2c=channel_add(a2c, message, capacity))))
                elif edge.event == "internal":
                    steps.append((
                        "agent: internal step",
                        pack(agent_state=edge.target)))
                elif edge.event == "timeout":
                    if naks_used < self.max_naks:
                        steps.append((
                            f"agent: watchdog timeout (nak round "
                            f"{naks_used + 1}/{self.max_naks})",
                            pack(agent_state=edge.target,
                                 naks_used=naks_used + 1)))

        # Deliveries out of each channel.
        client_transient = client_state in self.client.transient
        agent_transient = agent_state in self.agent.transient
        for message in channel_items(c2a):
            remaining = channel_remove(c2a, message)
            if agent_state == DEAD:
                steps.append((f"net: {message} arrives at crashed agent, "
                              "lost", pack(c2a=remaining)))
                continue
            if agent_transient:
                continue  # agent is mid-handler; delivery waits
            edges = [edge for edge in self.agent.edges_from(agent_state)
                     if edge.event == f"recv {message}"]
            if edges:
                for edge in edges:
                    steps.append((
                        f"net: deliver {message} -> agent",
                        pack(agent_state=edge.target, c2a=remaining)))
            elif message in self.agent.ignores:
                steps.append((f"agent: ignore {message} (filtered)",
                              pack(c2a=remaining)))
            else:
                violations.append((
                    "unhandled",
                    f"agent in state {agent_state} has no transition or "
                    f"ignore rule for {message}",
                    f"net: deliver {message} -> agent"))
        for message in channel_items(a2c):
            remaining = channel_remove(a2c, message)
            if client_state == ABORTED:
                steps.append((f"net: {message} arrives after client abort, "
                              "dropped by closed socket",
                              pack(a2c=remaining)))
                continue
            if client_transient:
                continue
            edges = [edge for edge in self.client.edges_from(client_state)
                     if edge.event == f"recv {message}"]
            if edges:
                for edge in edges:
                    # New information resets the streaming budget: the
                    # implementation retransmits in response to a NAK.
                    steps.append((
                        f"net: deliver {message} -> client",
                        pack(client_state=edge.target, a2c=remaining,
                             sends_left=self.send_bound)))
            elif message in self.client.ignores:
                steps.append((f"client: ignore {message} (filtered)",
                              pack(a2c=remaining)))
            else:
                violations.append((
                    "unhandled",
                    f"client in state {client_state} has no transition or "
                    f"ignore rule for {message}",
                    f"net: deliver {message} -> client"))

        # Adversary: drops, duplicates, crash/restart.
        if drops < self.budget.max_drops:
            for message in channel_items(c2a):
                steps.append((f"net: drop {message}",
                              pack(c2a=channel_remove(c2a, message),
                                   drops=drops + 1)))
            for message in channel_items(a2c):
                steps.append((f"net: drop {message}",
                              pack(a2c=channel_remove(a2c, message),
                                   drops=drops + 1)))
        if dups < self.budget.max_duplicates:
            for message in channel_items(c2a):
                if len(c2a) < capacity:
                    steps.append((f"net: duplicate {message}",
                                  pack(c2a=channel_add(c2a, message,
                                                       capacity),
                                       dups=dups + 1)))
            for message in channel_items(a2c):
                if len(a2c) < capacity:
                    steps.append((f"net: duplicate {message}",
                                  pack(a2c=channel_add(a2c, message,
                                                       capacity),
                                       dups=dups + 1)))
        if agent_state != DEAD and crashes < self.budget.max_crashes:
            steps.append(("agent: crash (volatile state lost)",
                          pack(agent_state=DEAD, crashes=crashes + 1)))
        if agent_state == DEAD:
            steps.append(("agent: restart (fresh state)",
                          pack(agent_state=self.agent.initial, naks_used=0)))
        return steps, violations


# -- semantic refinement models -----------------------------------------------


@dataclass(frozen=True)
class SemanticFlags:
    """Mutation hooks: re-introduce the absence of implementation guards.

    All default to False — the checked model.  Tests flip one at a time
    to demonstrate the checker produces a counterexample when a guard is
    removed (the model-level analogue of mutating the implementation).
    """

    accept_unknown_op_data: bool = False    # drop the unknown-op guard
    client_accepts_any_reply: bool = False  # drop the op_id reply filter
    client_accepts_any_seq: bool = False    # drop the stale-seq purge
    reapply_on_query: bool = False          # re-run the write on a re-ACK


#: Disk cell generations for the semantic models.
_EMPTY, _CURRENT, _STALE = 0, 1, -1
_CURRENT_OP, _STALE_OP = 1, 0


class WriteModel:
    """Byte-accurate write path: WRITE-REQ, WRITE-DATA*, ACK/NAK.

    The disk is a tuple of per-packet cells tagged by generation; the
    agent's op table maps op ids to (received-mask, applied-count).  The
    adversary may additionally inject stale messages carrying the
    previous session's op id.  Invariants (the conservation contract):

    * **no byte lost** — client DONE implies every cell holds exactly
      the current generation;
    * **no byte duplicated** — no cell is written twice and no op is
      applied twice.

    Spec conformance: the model simulates exactly the edge events of
    the ``write`` / ``write-server`` machines (checked statically by
    :func:`check_model`).
    """

    name = "bytes:write"
    client_machine = "write"
    agent_machine = "write-server"
    client_events = frozenset({
        "send WriteRequest", "send WriteData", "recv WriteAck",
        "recv WriteNak", "timeout"})
    agent_events = frozenset({
        "recv WriteRequest", "recv WriteData", "send WriteAck",
        "send WriteNak", "timeout", "internal"})

    def __init__(self, budget: AdversaryBudget, retransmit_bound: int = 2,
                 packets: int = 2, max_naks: int = 1,
                 flags: SemanticFlags = SemanticFlags()):
        self.budget = budget
        self.retransmit_bound = retransmit_bound
        self.packets = packets
        self.max_naks = max_naks
        self.flags = flags
        self.full_mask = (1 << packets) - 1

    # state: (phase, to_send, retransmits, alive, ops, disk, c2a, a2c,
    #         drops, dups, crashes, stale_used, naks_used)
    # ops: sorted tuple of (op_id, received_mask, applied_count)

    def initial_state(self):
        return ("IDLE", 0, 0, True, (), (_EMPTY,) * self.packets,
                (), (), 0, 0, 0, 0, 0)

    def is_resting(self, state) -> bool:
        return state[0] in ("DONE", "ABORTED")

    def check_state(self, state):
        phase, _, _, _, ops, disk = state[:6]
        problems = []
        for op_id, _, applied in ops:
            if applied > 1:
                problems.append((
                    "safety", "byte duplicated: write op "
                    f"{op_id} applied {applied} times"))
        if phase == "DONE":
            for index, cell in enumerate(disk):
                if cell != _CURRENT:
                    kind = "empty" if cell == _EMPTY else "stale data"
                    problems.append((
                        "safety", "byte lost: client believes the write "
                        f"is durable but disk cell {index} holds {kind}"))
        return problems

    # -- helpers ----------------------------------------------------------

    def _ops_get(self, ops, op_id):
        for entry in ops:
            if entry[0] == op_id:
                return entry
        return None

    def _ops_put(self, ops, op_id, mask, applied):
        others = tuple(entry for entry in ops if entry[0] != op_id)
        return tuple(sorted(others + ((op_id, mask, applied),)))

    def _write_cell(self, disk, index, op_id):
        # Cells are offset-addressed: re-writing the same generation to
        # the same cell is idempotent (crash-recovery retransmits are
        # legal).  A stale-generation write corrupts the cell.
        cells = list(disk)
        cells[index] = _CURRENT if op_id == _CURRENT_OP else _STALE
        return tuple(cells)

    def _missing(self, mask) -> tuple[int, ...]:
        return tuple(index for index in range(self.packets)
                     if not mask & (1 << index))

    def _handle_request(self, ops, disk, a2c, op_id, capacity):
        """Agent serves a WRITE-REQ (announce or status query)."""
        entry = self._ops_get(ops, op_id)
        if entry is None:
            return (self._ops_put(ops, op_id, 0, 0), disk, a2c,
                    "agent: register op, arm watchdog")
        _, mask, applied = entry
        if applied or mask == self.full_mask:
            if self.flags.reapply_on_query:
                for index in range(self.packets):
                    disk = self._write_cell(disk, index, op_id)
                ops = self._ops_put(ops, op_id, mask, applied + 1)
            return (ops, disk,
                    channel_add(a2c, ("WriteAck", op_id), capacity),
                    "agent: re-ACK completed op")
        return (ops, disk,
                channel_add(a2c, ("WriteNak", op_id, self._missing(mask)),
                            capacity),
                "agent: NAK status query (missing "
                f"{list(self._missing(mask))})")

    def _handle_data(self, ops, disk, a2c, op_id, index, capacity):
        """Agent absorbs one WRITE-DATA packet (synchronous write)."""
        entry = self._ops_get(ops, op_id)
        if entry is None:
            if not self.flags.accept_unknown_op_data:
                return ops, disk, a2c, "agent: ignore unknown-op data"
            entry = (op_id, 0, 0)
            ops = self._ops_put(ops, op_id, 0, 0)
        _, mask, applied = entry
        if applied:
            return ops, disk, a2c, "agent: ignore data for applied op"
        bit = 1 << index
        if mask & bit:
            return ops, disk, a2c, "agent: ignore duplicate packet"
        disk = self._write_cell(disk, index, op_id)
        mask |= bit
        if mask == self.full_mask:
            ops = self._ops_put(ops, op_id, mask, applied + 1)
            return (ops, disk,
                    channel_add(a2c, ("WriteAck", op_id), capacity),
                    "agent: final packet, apply and ACK")
        ops = self._ops_put(ops, op_id, mask, applied)
        return ops, disk, a2c, f"agent: store packet {index}"

    # -- successors -------------------------------------------------------

    def successors(self, state):
        (phase, to_send, retransmits, alive, ops, disk, c2a, a2c,
         drops, dups, crashes, stale_used, naks_used) = state
        capacity = self.budget.channel_capacity
        steps: list[tuple[str, tuple]] = []
        violations: list[tuple[str, str, str]] = []

        def pack(phase=phase, to_send=to_send, retransmits=retransmits,
                 alive=alive, ops=ops, disk=disk, c2a=c2a, a2c=a2c,
                 drops=drops, dups=dups, crashes=crashes,
                 stale_used=stale_used, naks_used=naks_used):
            return (phase, to_send, retransmits, alive, ops, disk, c2a,
                    a2c, drops, dups, crashes, stale_used, naks_used)

        # Client.
        if phase == "IDLE":
            steps.append((
                "client: send WriteRequest (announce op "
                f"{_CURRENT_OP}, {self.packets} packets)",
                pack(phase="STREAM", to_send=self.full_mask,
                     c2a=channel_add(c2a, ("WriteRequest", _CURRENT_OP),
                                     capacity))))
        elif phase == "STREAM":
            index = next(i for i in range(self.packets)
                         if to_send & (1 << i))
            remaining = to_send & ~(1 << index)
            steps.append((
                f"client: send WriteData packet {index}",
                pack(phase="STREAM" if remaining else "AWAIT",
                     to_send=remaining,
                     c2a=channel_add(c2a, ("WriteData", _CURRENT_OP, index),
                                     capacity))))
        elif phase == "AWAIT":
            if retransmits < self.retransmit_bound:
                steps.append((
                    "client: timeout, re-send WriteRequest (status query, "
                    f"retransmit {retransmits + 1}/{self.retransmit_bound})",
                    pack(retransmits=retransmits + 1,
                         c2a=channel_add(c2a, ("WriteRequest", _CURRENT_OP),
                                         capacity))))
            else:
                steps.append((
                    "client: timeout — retransmit bound reached, abort "
                    "cleanly", pack(phase="ABORTED")))
            for message in channel_items(a2c):
                remaining = channel_remove(a2c, message)
                kind, op_id = message[0], message[1]
                accepted = (op_id == _CURRENT_OP
                            or self.flags.client_accepts_any_reply)
                if kind == "WriteAck":
                    if accepted:
                        steps.append((
                            f"net: deliver WriteAck(op={op_id}) -> client; "
                            "client marks write durable",
                            pack(phase="DONE", a2c=remaining)))
                    else:
                        steps.append((
                            f"client: ignore stale WriteAck(op={op_id})",
                            pack(a2c=remaining)))
                elif kind == "WriteNak":
                    missing = message[2]
                    if accepted:
                        mask = 0
                        for index in missing:
                            mask |= 1 << index
                        steps.append((
                            f"net: deliver WriteNak(op={op_id}, "
                            f"missing={list(missing)}) -> client; "
                            "client retransmits",
                            pack(phase="STREAM" if mask else "AWAIT",
                                 to_send=mask, a2c=remaining)))
                    else:
                        steps.append((
                            f"client: ignore stale WriteNak(op={op_id})",
                            pack(a2c=remaining)))
                else:
                    violations.append((
                        "unhandled",
                        f"client has no handler for {kind}",
                        f"net: deliver {kind} -> client"))
        else:  # DONE / ABORTED: the socket is gone; late replies vanish.
            for message in channel_items(a2c):
                steps.append((
                    f"net: {message[0]}(op={message[1]}) arrives after "
                    "client finished, dropped by closed socket",
                    pack(a2c=channel_remove(a2c, message))))

        # Agent: deliveries are atomic handler runs.
        for message in channel_items(c2a):
            remaining = channel_remove(c2a, message)
            if not alive:
                steps.append((
                    f"net: {message[0]} arrives at crashed agent, lost",
                    pack(c2a=remaining)))
                continue
            kind, op_id = message[0], message[1]
            if kind == "WriteRequest":
                new_ops, new_disk, new_a2c, note = self._handle_request(
                    ops, disk, a2c, op_id, capacity)
                steps.append((
                    f"net: deliver WriteRequest(op={op_id}) -> agent; "
                    f"{note}",
                    pack(ops=new_ops, disk=new_disk, c2a=remaining,
                         a2c=new_a2c)))
            elif kind == "WriteData":
                index = message[2]
                new_ops, new_disk, new_a2c, note = self._handle_data(
                    ops, disk, a2c, op_id, index, capacity)
                steps.append((
                    f"net: deliver WriteData(op={op_id}, packet={index}) "
                    f"-> agent; {note}",
                    pack(ops=new_ops, disk=new_disk, c2a=remaining,
                         a2c=new_a2c)))
            else:
                violations.append((
                    "unhandled", f"agent has no handler for {kind}",
                    f"net: deliver {kind} -> agent"))

        # Agent watchdog: NAK a stalled, incomplete op.
        if alive and naks_used < self.max_naks:
            for op_id, mask, applied in ops:
                if applied or mask == self.full_mask:
                    continue
                steps.append((
                    f"agent: watchdog NAK op {op_id} (missing "
                    f"{list(self._missing(mask))})",
                    pack(a2c=channel_add(
                        a2c, ("WriteNak", op_id, self._missing(mask)),
                        capacity), naks_used=naks_used + 1)))

        # Adversary.
        if drops < self.budget.max_drops:
            for message in channel_items(c2a):
                steps.append((f"net: drop {message[0]}(op={message[1]})",
                              pack(c2a=channel_remove(c2a, message),
                                   drops=drops + 1)))
            for message in channel_items(a2c):
                steps.append((f"net: drop {message[0]}(op={message[1]})",
                              pack(a2c=channel_remove(a2c, message),
                                   drops=drops + 1)))
        if dups < self.budget.max_duplicates:
            for message in channel_items(c2a):
                if len(c2a) < capacity:
                    steps.append((
                        f"net: duplicate {message[0]}(op={message[1]})",
                        pack(c2a=channel_add(c2a, message, capacity),
                             dups=dups + 1)))
            for message in channel_items(a2c):
                if len(a2c) < capacity:
                    steps.append((
                        f"net: duplicate {message[0]}(op={message[1]})",
                        pack(a2c=channel_add(a2c, message, capacity),
                             dups=dups + 1)))
        if alive and crashes < self.budget.max_crashes:
            steps.append((
                "agent: crash between partial-write ACKs (op table lost, "
                "disk persists)",
                pack(alive=False, ops=(), crashes=crashes + 1)))
        if not alive:
            steps.append(("agent: restart (fresh op table)",
                          pack(alive=True, naks_used=0)))
        if stale_used < self.budget.max_stale:
            stale_nak = ("WriteNak", _STALE_OP,
                         tuple(range(self.packets)))
            for label, channel_name, message in (
                    ("net: inject stale WriteAck from prior session",
                     "a2c", ("WriteAck", _STALE_OP)),
                    ("net: inject stale WriteNak from prior session",
                     "a2c", stale_nak),
                    ("net: inject stale WriteData from prior session",
                     "c2a", ("WriteData", _STALE_OP, 0)),
                    ("net: inject stale WriteRequest from prior session",
                     "c2a", ("WriteRequest", _STALE_OP))):
                if channel_name == "a2c":
                    steps.append((label,
                                  pack(a2c=channel_add(a2c, message,
                                                       capacity),
                                       stale_used=stale_used + 1)))
                else:
                    steps.append((label,
                                  pack(c2a=channel_add(c2a, message,
                                                       capacity),
                                       stale_used=stale_used + 1)))
        return steps, violations


class ReadModel:
    """Byte-accurate read path: READ-REQ in, DATA back, stale-seq purge.

    The client retries the *same* sequence number on timeout (like
    ``_fetch_packet``); data packets carry (seq, generation) and the
    invariant is that a completed read returned current-generation
    bytes.  Stale injection plants a prior session's packet (old seq,
    stale generation) in the reply channel.
    """

    name = "bytes:read"
    client_machine = "read"
    agent_machine = "read-server"
    client_events = frozenset({
        "send ReadRequest", "recv DataPacket", "timeout"})
    agent_events = frozenset({"recv ReadRequest", "send DataPacket"})

    _SEQ = 1        # the current request's sequence number
    _OLD_SEQ = 0    # a prior session's sequence number

    def __init__(self, budget: AdversaryBudget, retransmit_bound: int = 2,
                 flags: SemanticFlags = SemanticFlags()):
        self.budget = budget
        self.retransmit_bound = retransmit_bound
        self.flags = flags

    # state: (phase, buffer_gen, retransmits, alive, c2a, a2c,
    #         drops, dups, crashes, stale_used)

    def initial_state(self):
        return ("IDLE", None, 0, True, (), (), 0, 0, 0, 0)

    def is_resting(self, state) -> bool:
        return state[0] in ("DONE", "ABORTED")

    def check_state(self, state):
        phase, buffer_gen = state[0], state[1]
        if phase == "DONE" and buffer_gen != _CURRENT:
            return (("safety", "byte lost: read completed with "
                     "stale-generation data in the reassembly buffer"),)
        return ()

    def successors(self, state):
        (phase, buffer_gen, retransmits, alive, c2a, a2c,
         drops, dups, crashes, stale_used) = state
        capacity = self.budget.channel_capacity
        steps: list[tuple[str, tuple]] = []
        violations: list[tuple[str, str, str]] = []

        def pack(phase=phase, buffer_gen=buffer_gen,
                 retransmits=retransmits, alive=alive, c2a=c2a, a2c=a2c,
                 drops=drops, dups=dups, crashes=crashes,
                 stale_used=stale_used):
            return (phase, buffer_gen, retransmits, alive, c2a, a2c,
                    drops, dups, crashes, stale_used)

        if phase == "IDLE":
            steps.append((
                f"client: send ReadRequest(seq={self._SEQ})",
                pack(phase="WAIT",
                     c2a=channel_add(c2a, ("ReadRequest", self._SEQ),
                                     capacity))))
        elif phase == "WAIT":
            if retransmits < self.retransmit_bound:
                steps.append((
                    "client: timeout, purge stale packets and resubmit "
                    f"(retransmit {retransmits + 1}/{self.retransmit_bound})",
                    pack(phase="IDLE", retransmits=retransmits + 1)))
            else:
                steps.append((
                    "client: timeout — retransmit bound reached, abort "
                    "cleanly", pack(phase="ABORTED")))
            for message in channel_items(a2c):
                remaining = channel_remove(a2c, message)
                _, seq, generation = message
                if seq == self._SEQ or self.flags.client_accepts_any_seq:
                    steps.append((
                        f"net: deliver DataPacket(seq={seq}, "
                        f"gen={generation}) -> client; read completes",
                        pack(phase="DONE", buffer_gen=generation,
                             a2c=remaining)))
                else:
                    steps.append((
                        f"client: purge stale DataPacket(seq={seq})",
                        pack(a2c=remaining)))
        else:  # DONE / ABORTED
            for message in channel_items(a2c):
                steps.append((
                    f"net: DataPacket(seq={message[1]}) arrives after "
                    "client finished, dropped by closed socket",
                    pack(a2c=channel_remove(a2c, message))))

        for message in channel_items(c2a):
            remaining = channel_remove(c2a, message)
            if not alive:
                steps.append((
                    "net: ReadRequest arrives at crashed agent, lost",
                    pack(c2a=remaining)))
                continue
            _, seq = message
            steps.append((
                f"net: deliver ReadRequest(seq={seq}) -> agent; agent "
                "serves current data",
                pack(c2a=remaining,
                     a2c=channel_add(a2c, ("DataPacket", seq, _CURRENT),
                                     capacity))))

        if drops < self.budget.max_drops:
            for message in channel_items(c2a):
                steps.append((f"net: drop {message[0]}",
                              pack(c2a=channel_remove(c2a, message),
                                   drops=drops + 1)))
            for message in channel_items(a2c):
                steps.append((f"net: drop {message[0]}",
                              pack(a2c=channel_remove(a2c, message),
                                   drops=drops + 1)))
        if dups < self.budget.max_duplicates:
            for message in channel_items(c2a):
                if len(c2a) < capacity:
                    steps.append((f"net: duplicate {message[0]}",
                                  pack(c2a=channel_add(c2a, message,
                                                       capacity),
                                       dups=dups + 1)))
            for message in channel_items(a2c):
                if len(a2c) < capacity:
                    steps.append((f"net: duplicate {message[0]}",
                                  pack(a2c=channel_add(a2c, message,
                                                       capacity),
                                       dups=dups + 1)))
        if alive and crashes < self.budget.max_crashes:
            steps.append(("agent: crash",
                          pack(alive=False, crashes=crashes + 1)))
        if not alive:
            steps.append(("agent: restart", pack(alive=True)))
        if stale_used < self.budget.max_stale:
            steps.append((
                "net: inject stale DataPacket from prior session "
                f"(seq={self._OLD_SEQ})",
                pack(a2c=channel_add(
                    a2c, ("DataPacket", self._OLD_SEQ, _STALE), capacity),
                    stale_used=stale_used + 1)))
        return steps, violations


# -- the --model entry point --------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """Bounds for one ``repro check --model`` run."""

    max_depth: int = 60
    retransmit_bound: int = 2
    packets: int = 2
    budget: AdversaryBudget = AdversaryBudget()
    scenarios: tuple[str, ...] = ()     # empty = all
    flags: SemanticFlags = SemanticFlags()

    def describe_bounds(self) -> str:
        return (f"depth<={self.max_depth} retransmits<={self.retransmit_bound} "
                f"packets={self.packets} {self.budget.describe()}")


@dataclass
class ScenarioStats:
    """Per-scenario exploration summary."""

    name: str
    states: int
    transitions: int
    depth_reached: int
    exhausted: bool
    violations: int

    def to_dict(self) -> dict:
        return {"name": self.name, "states": self.states,
                "transitions": self.transitions,
                "depth_reached": self.depth_reached,
                "exhausted": self.exhausted,
                "violations": self.violations}


@dataclass
class ModelStats:
    """Whole-run summary, reported alongside the findings."""

    bounds: str
    scenarios: list[ScenarioStats] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return all(s.exhausted for s in self.scenarios)

    @property
    def states(self) -> int:
        return sum(s.states for s in self.scenarios)

    def to_dict(self) -> dict:
        return {"bounds": self.bounds, "exhausted": self.exhausted,
                "states": self.states,
                "scenarios": [s.to_dict() for s in self.scenarios]}

    def render_text(self) -> str:
        lines = [f"model: bounds {self.bounds}"]
        for stats in self.scenarios:
            status = "exhausted" if stats.exhausted else "depth-capped"
            lines.append(
                f"model: {stats.name}: {stats.states} states, "
                f"{stats.transitions} transitions, depth "
                f"{stats.depth_reached}, {status}, "
                f"{stats.violations} violation(s)")
        return "\n".join(lines)


def _pair_scenarios(config: ModelConfig):
    for client_name, agent_name in MACHINE_PAIRS:
        name = f"pair:{client_name}"
        yield name, (lambda c=client_name, a=agent_name: PairModel(
            machine_by_name(c), machine_by_name(a), config.budget,
            retransmit_bound=config.retransmit_bound,
            send_bound=config.packets))


def _scenario_builders(config: ModelConfig) -> dict[str, Callable]:
    builders: dict[str, Callable] = dict(_pair_scenarios(config))
    builders["bytes:write"] = lambda: WriteModel(
        config.budget, retransmit_bound=config.retransmit_bound,
        packets=config.packets, flags=config.flags)
    builders["bytes:read"] = lambda: ReadModel(
        config.budget, retransmit_bound=config.retransmit_bound,
        flags=config.flags)
    return builders


def scenario_names(config: Optional[ModelConfig] = None) -> tuple[str, ...]:
    return tuple(_scenario_builders(config or ModelConfig()))


def build_scenario(name: str,
                   config: Optional[ModelConfig] = None):
    """Build one scenario's model (exposed for tests)."""
    return _scenario_builders(config or ModelConfig())[name]()


def _check_model_conformance(model, spec_path: Path) -> list[Finding]:
    """The semantic model must simulate exactly its machines' edges."""
    findings = []
    for machine_name, declared in ((model.client_machine,
                                    model.client_events),
                                   (model.agent_machine,
                                    model.agent_events)):
        machine = machine_by_name(machine_name)
        spec_events = {t.event for t in machine.transitions}
        for event in sorted(spec_events - declared):
            findings.append(Finding(
                rule_id="model-conformance", path=spec_path, line=1,
                message=f"[{model.name}] machine {machine_name} has edge "
                        f"event {event!r} the semantic model does not "
                        "simulate"))
        for event in sorted(declared - spec_events):
            findings.append(Finding(
                rule_id="model-conformance", path=spec_path, line=1,
                message=f"[{model.name}] semantic model simulates "
                        f"{event!r}, which is not an edge of machine "
                        f"{machine_name}"))
    return findings


#: The rules :func:`check_model` reports: rule id -> one-line summary.
MODEL_RULES = {
    "model-deadlock": "no stuck composite state",
    "model-unhandled": "every delivered message has a transition or an "
                       "ignore rule",
    "model-livelock": "every transfer completes or cleanly aborts within "
                      "the retransmit bound",
    "model-safety": "no byte lost or duplicated (conservation contract)",
    "model-conformance": "semantic models simulate exactly the spec "
                         "machines' edges",
}


def check_model(config: Optional[ModelConfig] = None,
                ) -> tuple[list[Finding], ModelStats]:
    """Run every selected scenario; returns (findings, stats)."""
    config = config or ModelConfig()
    spec_path = Path(__file__).resolve().parent / "spec.py"
    builders = _scenario_builders(config)
    selected = config.scenarios or tuple(builders)
    unknown = [name for name in selected if name not in builders]
    if unknown:
        raise ValueError(f"unknown model scenario(s): {', '.join(unknown)}; "
                         f"known: {', '.join(builders)}")
    findings: list[Finding] = []
    stats = ModelStats(bounds=config.describe_bounds())
    for name in selected:
        model = builders[name]()
        if hasattr(model, "client_events"):
            findings.extend(_check_model_conformance(model, spec_path))
        result = explore(model, config.max_depth)
        stats.scenarios.append(ScenarioStats(
            name=name, states=result.states,
            transitions=result.transitions,
            depth_reached=result.depth_reached,
            exhausted=result.exhausted,
            violations=len(result.violations)))
        for violation in result.violations:
            findings.append(Finding(
                rule_id=f"model-{violation.invariant}", path=spec_path,
                line=1, message=f"[{name}] {violation.format()}"))
        if not result.exhausted:
            findings.append(Finding(
                rule_id="model-depth", path=spec_path, line=1,
                message=f"[{name}] state space NOT exhausted at depth "
                        f"{config.max_depth}; raise --depth for a "
                        "conclusive run"))
    return findings, stats
