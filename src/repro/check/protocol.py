"""Static protocol checker: implementation vs the docs/PROTOCOL.md spec.

Extraction is purely syntactic, over three groups of sources:

* ``core/agent_protocol.py`` — the message vocabulary (top-level classes);
* ``core/storage_agent.py`` — the agent side: ``isinstance(message, X)``
  dispatch arms are *receives*, constructor calls of message classes are
  *sends*;
* the client side (``core/distribution.py``, ``core/namespace.py``,
  ``core/client.py``, ``core/streaming.py``, ``core/session.py``) — same
  extraction, plus which replies are awaited under a ``recv_wait``
  timeout guard (directly in a predicate lambda, or passed into a helper
  that wraps ``recv_wait``).

The verification then checks, against :mod:`repro.check.spec`:

* the spec only names defined messages, and every defined message is in
  the spec (no undocumented vocabulary);
* every spec request is sent by the client and received by the agent
  ("send without matching receive"), every spec reply is sent by the
  agent and awaited by the client;
* no side sends a message the spec does not allow it to send;
* replies over the lossy transport are awaited with a timeout guard;
* the state machines themselves are sound: all states reachable, no trap
  states, and every state that awaits a *reply* has a timeout edge
  (servers may await requests forever);
* machine/code conformance in both directions: every ``send``/``recv``
  edge of a machine has evidence in its side's sources, and every
  extracted send/receive appears as an edge of some machine of that
  side — no unimplemented spec edge, no spec-free code edge.  Both ends
  of every exchange must be covered by a machine of the right side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .findings import Finding
from .spec import (
    EXCHANGES,
    MACHINES,
    StateMachine,
    reply_message_names,
    spec_message_names,
)

__all__ = ["PROTOCOL_RULES", "check_protocol", "extract_side",
           "extract_vocabulary", "ProtocolSide"]

#: Client-side sources, relative to the package root.
CLIENT_SOURCES = (
    "core/distribution.py",
    "core/namespace.py",
    "core/client.py",
    "core/streaming.py",
    "core/session.py",
)
AGENT_SOURCE = "core/storage_agent.py"
VOCABULARY_SOURCE = "core/agent_protocol.py"


@dataclass
class ProtocolSide:
    """What one side of the protocol does, as extracted from source."""

    sends: dict[str, int] = field(default_factory=dict)      # name -> line
    receives: dict[str, int] = field(default_factory=dict)   # name -> line
    guarded: dict[str, int] = field(default_factory=dict)    # timeout waits

    def merge(self, other: "ProtocolSide") -> None:
        for mine, theirs in ((self.sends, other.sends),
                             (self.receives, other.receives),
                             (self.guarded, other.guarded)):
            for name, line in theirs.items():
                mine.setdefault(name, line)


def extract_vocabulary(path: Path) -> dict[str, int]:
    """Message class name -> definition line, from agent_protocol.py."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, ast.ClassDef)}


def _isinstance_targets(node: ast.Call) -> list[str]:
    """Class names tested by an ``isinstance(x, C)`` / ``(C1, C2)`` call."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2):
        return []
    target = node.args[1]
    candidates = target.elts if isinstance(target, ast.Tuple) else [target]
    return [piece.id for piece in candidates if isinstance(piece, ast.Name)]


def _is_recv_wait(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    return name == "recv_wait"


def extract_side(paths: Iterable[Path],
                 vocabulary: frozenset[str]) -> ProtocolSide:
    """Extract sends/receives/guarded-waits from a set of source files."""
    side = ProtocolSide()
    for path in paths:
        if not path.exists():
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        side.merge(_extract_module(tree, vocabulary))
    return side


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map each AST node id to the name of its enclosing function."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, current: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        owner[id(node)] = current or ""
        for child in ast.iter_child_nodes(node):
            visit(child, current)

    visit(tree, None)
    return owner


def _extract_module(tree: ast.Module,
                    vocabulary: frozenset[str]) -> ProtocolSide:
    side = ProtocolSide()
    owner = _enclosing_functions(tree)
    # Pass 1: direct evidence, and which functions wrap recv_wait.
    recv_wait_wrappers: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for name in _isinstance_targets(node):
            if name in vocabulary:
                side.receives.setdefault(name, node.lineno)
        func = node.func
        if isinstance(func, ast.Name) and func.id in vocabulary:
            side.sends.setdefault(func.id, node.lineno)
        if _is_recv_wait(node):
            if owner.get(id(node)):
                recv_wait_wrappers.add(owner[id(node)])
            for argument in list(node.args) + [kw.value for kw
                                               in node.keywords]:
                if isinstance(argument, ast.Lambda):
                    for inner in ast.walk(argument):
                        if isinstance(inner, ast.Call):
                            for name in _isinstance_targets(inner):
                                if name in vocabulary:
                                    side.guarded.setdefault(
                                        name, node.lineno)
    # Pass 2: message classes handed to a recv_wait-wrapping helper are
    # awaited under that helper's timeout (e.g. namespace._transact).
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if callee not in recv_wait_wrappers:
            continue
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(argument, ast.Name) and argument.id in vocabulary:
                side.guarded.setdefault(argument.id, node.lineno)
                side.receives.setdefault(argument.id, node.lineno)
    return side


# -- machine soundness --------------------------------------------------------


def _check_machine(machine: StateMachine, spec_path: Path) -> list[Finding]:
    findings: list[Finding] = []

    def finding(message: str) -> Finding:
        return Finding(rule_id="protocol-machine", path=spec_path, line=1,
                       message=f"[{machine.name}] {message}")

    # Reachability from the initial state.
    reachable = {machine.initial}
    frontier = [machine.initial]
    while frontier:
        state = frontier.pop()
        for transition in machine.edges_from(state):
            if transition.target not in reachable:
                reachable.add(transition.target)
                frontier.append(transition.target)
    for state in sorted(machine.states - reachable):
        findings.append(finding(f"state {state} is unreachable from "
                                f"{machine.initial}"))

    # No trap states: a terminal must be reachable from every state.
    for state in sorted(reachable - machine.terminals):
        seen = {state}
        frontier = [state]
        escaped = False
        while frontier and not escaped:
            current = frontier.pop()
            for transition in machine.edges_from(current):
                if transition.target in machine.terminals:
                    escaped = True
                    break
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        if not escaped:
            findings.append(finding(
                f"state {state} cannot reach a terminal state"))

    # Events must be well-formed.
    for transition in machine.transitions:
        event = transition.event
        if not (event in ("timeout", "internal")
                or event.startswith(("send ", "recv "))):
            findings.append(finding(
                f"malformed event {event!r} on edge "
                f"{transition.source} -> {transition.target}"))

    # Lossy transport: a state that awaits a *reply* needs a timeout
    # edge.  A server's listen state awaits requests and may block
    # forever; only reply waits can wedge a transfer on loss.
    replies = reply_message_names()
    for state in sorted(machine.states - machine.terminals):
        edges = machine.edges_from(state)
        awaits_reply = any(
            t.event.startswith("recv ")
            and t.event.split(" ", 1)[1] in replies
            for t in edges)
        has_timeout = any(t.event == "timeout" for t in edges)
        if awaits_reply and not has_timeout:
            findings.append(finding(
                f"state {state} awaits a reply but has no timeout edge"))
        if not edges and state not in machine.terminals:
            findings.append(finding(
                f"non-terminal state {state} has no outgoing edges"))
    return findings


# -- machine/code conformance -------------------------------------------------


def _machine_edge_events(side_name: str) -> tuple[dict[str, str],
                                                  dict[str, str]]:
    """(sends, receives): message name -> machine name, for one side."""
    sends: dict[str, str] = {}
    receives: dict[str, str] = {}
    for machine in MACHINES:
        if machine.side != side_name:
            continue
        for transition in machine.transitions:
            if transition.event.startswith("send "):
                sends.setdefault(transition.event.split(" ", 1)[1],
                                 machine.name)
            elif transition.event.startswith("recv "):
                receives.setdefault(transition.event.split(" ", 1)[1],
                                    machine.name)
    return sends, receives


def _check_conformance(client: ProtocolSide, agent: ProtocolSide,
                       defined: frozenset[str],
                       spec_path: Path) -> list[Finding]:
    """Spec machines vs extracted code edges, in both directions."""
    findings: list[Finding] = []

    def conformance(message: str) -> Finding:
        return Finding(rule_id="protocol-conformance", path=spec_path,
                       line=1, message=message)

    sides = (("client", client), ("agent", agent))
    for side_name, code in sides:
        spec_sends, spec_receives = _machine_edge_events(side_name)
        # Direction 1: every machine edge is implemented.
        for name, machine_name in sorted(spec_sends.items()):
            if name in defined and name not in code.sends:
                findings.append(conformance(
                    f"machine {machine_name} has edge 'send {name}' but "
                    f"the {side_name} sources never construct {name}"))
        for name, machine_name in sorted(spec_receives.items()):
            if name in defined and name not in code.receives:
                findings.append(conformance(
                    f"machine {machine_name} has edge 'recv {name}' but "
                    f"the {side_name} sources never dispatch on {name}"))
        # Direction 2: every code edge appears in some machine.
        for name in sorted(set(code.sends) & defined):
            if name not in spec_sends:
                findings.append(conformance(
                    f"{side_name} code sends {name} but no {side_name} "
                    f"machine has a 'send {name}' edge"))
        for name in sorted(set(code.receives) & defined):
            if name not in spec_receives:
                findings.append(conformance(
                    f"{side_name} code dispatches on {name} but no "
                    f"{side_name} machine has a 'recv {name}' edge"))

    # Client timeout edges are implemented as recv_wait guards: a state
    # with a timeout edge that also awaits messages must await them
    # under a guard.
    for machine in MACHINES:
        if machine.side != "client":
            continue
        for state in machine.states:
            edges = machine.edges_from(state)
            if not any(t.event == "timeout" for t in edges):
                continue
            for transition in edges:
                if not transition.event.startswith("recv "):
                    continue
                name = transition.event.split(" ", 1)[1]
                if name in defined and name not in client.guarded:
                    findings.append(conformance(
                        f"machine {machine.name} state {state} pairs a "
                        f"timeout edge with 'recv {name}' but the client "
                        f"never awaits {name} under a recv_wait guard"))

    # Every exchange end is covered by a machine of the right side.
    client_sends, client_receives = _machine_edge_events("client")
    agent_sends, agent_receives = _machine_edge_events("agent")
    for exchange in EXCHANGES:
        if exchange.request not in client_sends:
            findings.append(conformance(
                f"no client machine sends {exchange.request}"))
        if exchange.request not in agent_receives:
            findings.append(conformance(
                f"no agent machine receives {exchange.request}"))
        for reply in exchange.replies:
            if reply not in agent_sends:
                findings.append(conformance(
                    f"no agent machine sends {reply}"))
            if reply not in client_receives:
                findings.append(conformance(
                    f"no client machine receives {reply}"))
    return findings


# -- the full check -----------------------------------------------------------

#: The rules :func:`check_protocol` reports: rule id -> one-line summary.
PROTOCOL_RULES = {
    "protocol-spec": "spec vocabulary matches agent_protocol.py",
    "protocol-machine": "state machines are sound (reachability, timeout "
                        "edges)",
    "protocol-transition": "every send has a matching receive on the other "
                           "side",
    "protocol-timeout": "lossy-transport waits are timeout-guarded",
    "protocol-conformance": "spec machine edges match implemented send/recv "
                            "edges both ways",
}


def check_protocol(root: Path) -> list[Finding]:
    """Verify the protocol implementation under ``root`` (package dir).

    ``root`` is the ``repro`` package directory; returns all findings
    (empty when implementation, spec and machines agree).
    """
    root = Path(root)
    vocabulary_path = root / VOCABULARY_SOURCE
    if not vocabulary_path.exists():
        # Not a repro checkout (e.g. linting a fixture tree): nothing to do.
        return []
    findings: list[Finding] = []
    vocabulary = extract_vocabulary(vocabulary_path)
    defined = frozenset(vocabulary)
    spec_path = Path(__file__).resolve().parent / "spec.py"

    def spec_finding(message: str, rule: str = "protocol-spec") -> Finding:
        return Finding(rule_id=rule, path=spec_path, line=1, message=message)

    # Spec vocabulary vs defined messages, both directions.
    referenced = spec_message_names()
    for name in sorted(referenced - defined):
        findings.append(spec_finding(
            f"spec references undefined message class {name}"))
    for name in sorted(defined - referenced):
        findings.append(spec_finding(
            f"message class {name} (agent_protocol.py:{vocabulary[name]}) "
            "is not covered by the protocol spec"))

    # Machine soundness.
    for machine in MACHINES:
        findings.extend(_check_machine(machine, spec_path))

    client = extract_side((root / rel for rel in CLIENT_SOURCES), defined)
    agent = extract_side([root / AGENT_SOURCE], defined)
    agent_path = root / AGENT_SOURCE

    findings.extend(_check_conformance(client, agent, defined, spec_path))

    allowed_requests = {e.request for e in EXCHANGES}
    allowed_replies = {name for e in EXCHANGES for name in e.replies}

    for exchange in EXCHANGES:
        request = exchange.request
        if request not in defined:
            continue  # already reported against the spec
        if request not in client.sends:
            findings.append(spec_finding(
                f"spec request {request} is never sent by the client",
                rule="protocol-transition"))
        if request not in agent.receives:
            findings.append(Finding(
                rule_id="protocol-transition", path=agent_path, line=1,
                message=f"client sends {request} but the agent has no "
                        "matching receive arm"))
        for reply in exchange.replies:
            if reply not in agent.sends:
                findings.append(Finding(
                    rule_id="protocol-transition", path=agent_path, line=1,
                    message=f"spec reply {reply} (to {request}) is never "
                            "sent by the agent"))
            if reply not in client.receives:
                findings.append(spec_finding(
                    f"agent reply {reply} is never awaited by the client",
                    rule="protocol-transition"))
            elif exchange.timeout_required and reply not in client.guarded:
                findings.append(spec_finding(
                    f"client waits for {reply} without a timeout guard "
                    "(lossy transport requires one)",
                    rule="protocol-timeout"))

    # Neither side may emit vocabulary the spec does not allow it to.
    for name in sorted(set(client.sends) - allowed_requests):
        findings.append(spec_finding(
            f"client sends {name}, which the spec does not list as a "
            "request", rule="protocol-transition"))
    for name in sorted(set(agent.sends) - allowed_replies):
        findings.append(Finding(
            rule_id="protocol-transition", path=agent_path,
            line=agent.sends[name],
            message=f"agent sends {name}, which the spec does not list "
                    "as a reply"))
    return findings
