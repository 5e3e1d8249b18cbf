"""Namespace operations: object directory across the storage agents.

The prototype "used file system facilities to name and store objects which
makes the storage mediators unnecessary" (§3) — so the object namespace
*is* the union of the agents' local directories.  This module is the
client side of that: remove, stat and list implemented over the agents'
control ports, with the same retry discipline as the data path.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..des import Environment
from ..simnet import Address, Host
from .agent_protocol import (
    ListReply,
    ListRequest,
    RemoveReply,
    RemoveRequest,
    StatReply,
    StatRequest,
    wire_size,
)
from .errors import AgentFailure
from .storage_agent import WELL_KNOWN_PORT

__all__ = ["NamespaceClient"]

_request_ids = itertools.count(1_000_000)


class NamespaceClient:
    """Directory operations against a set of storage agents."""

    def __init__(self, env: Environment, client_host: Host,
                 agent_hosts: list[str],
                 timeout_s: float = 0.5, max_retries: int = 8,
                 well_known_port: int = WELL_KNOWN_PORT):
        if not agent_hosts:
            raise ValueError("need at least one storage agent")
        self.env = env
        self.client_host = client_host
        self.agent_hosts = list(agent_hosts)
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.well_known_port = well_known_port
        self.socket = client_host.bind(buffer_packets=32)

    # -- raw RPC -----------------------------------------------------------------

    def _call(self, agent_host: str, message, reply_type):
        """Process method: request/response with retries on the control
        port; raises AgentFailure if the agent never answers."""
        address = Address(agent_host, self.well_known_port)
        for _ in range(self.max_retries):
            yield self.socket.send_op(address, message=message,
                                      payload_size=wire_size(message))
            datagram = yield from self.socket.recv_wait(
                self.timeout_s,
                predicate=lambda d: isinstance(d.message, reply_type)
                and d.message.request_id == message.request_id)
            if datagram is not None:
                return datagram.message
        raise AgentFailure(
            f"agent {agent_host} did not answer a namespace request")

    # -- operations ----------------------------------------------------------------

    def remove(self, name: str):
        """Process method: unlink the object on every agent.

        Returns True if any agent held it (idempotent otherwise).
        """
        existed = False
        for agent_host in self.agent_hosts:
            reply: RemoveReply = yield from self._call(
                agent_host,
                RemoveRequest(file_name=name, request_id=next(_request_ids)),
                RemoveReply)
            existed = existed or reply.existed
        return existed

    def stat_sizes(self, name: str):
        """Process method: the object's local size on each agent.

        Returns a list aligned with ``agent_hosts``; ``None`` where the
        agent has no such file.
        """
        sizes: list[Optional[int]] = []
        for agent_host in self.agent_hosts:
            reply: StatReply = yield from self._call(
                agent_host,
                StatRequest(file_name=name, request_id=next(_request_ids)),
                StatReply)
            sizes.append(reply.local_size if reply.exists else None)
        return sizes

    def exists(self, name: str):
        """Process method: True if any agent holds a piece of the object."""
        sizes = yield from self.stat_sizes(name)
        return any(size is not None for size in sizes)

    def list_objects(self):
        """Process method: the union of all agents' object names, sorted."""
        names: set[str] = set()
        for agent_host in self.agent_hosts:
            reply: ListReply = yield from self._call(
                agent_host,
                ListRequest(request_id=next(_request_ids)),
                ListReply)
            names.update(reply.names)
        return sorted(names)

    def close(self) -> None:
        """Release the client-side socket."""
        self.socket.close()
