"""Stripe layout arithmetic: the mapping between a Swift object's logical
byte space and the per-agent files it is interleaved across.

§3: "the library interleaves data uniformly among the set of files used to
service a request"; §2: "the storage mediator selects the striping unit (the
amount of data allocated to each storage agent per stripe)".

The layout is classic round-robin striping: logical bytes are cut into
``striping_unit``-sized units and dealt to agents ``0, 1, ..., n-1, 0, ...``.
All arithmetic here is pure (no simulation state), so it is property-tested
heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Chunk", "StripeLayout"]


@dataclass(init=False, slots=True, unsafe_hash=True)
class Chunk:
    """A maximal piece of one request that lands on a single agent.

    ``logical_offset`` is where the chunk starts in the object's byte space;
    ``agent_offset`` is where it starts inside that agent's local file.
    Slotted, with the checks in a plain-assignment ``__init__``: chunk
    objects are minted per unit per request.  Compared and hashed by
    value; nothing mutates one.
    """

    agent: int
    agent_offset: int
    logical_offset: int
    length: int
    stripe: int

    def __init__(self, agent: int, agent_offset: int, logical_offset: int,
                 length: int, stripe: int):
        if length <= 0:
            raise ValueError("chunk length must be positive")
        if min(agent, agent_offset, logical_offset, stripe) < 0:
            raise ValueError("chunk coordinates must be non-negative")
        self.agent = agent
        self.agent_offset = agent_offset
        self.logical_offset = logical_offset
        self.length = length
        self.stripe = stripe

    def split(self, at: int) -> tuple["Chunk", "Chunk"]:
        """Cut into ``(head, tail)`` at ``at`` bytes from the start.

        A chunk never crosses a unit boundary, so both halves stay on the
        same agent and stripe.  Used when an agent dies mid-chunk: the
        retrieved head is accounted, the tail goes to degraded reading.
        """
        if not 0 < at < self.length:
            raise ValueError(f"split point {at} outside (0, {self.length})")
        head = Chunk(self.agent, self.agent_offset, self.logical_offset,
                     at, self.stripe)
        tail = Chunk(self.agent, self.agent_offset + at,
                     self.logical_offset + at, self.length - at, self.stripe)
        return head, tail


class StripeLayout:
    """Round-robin striping of a byte space over ``num_agents`` agents."""

    def __init__(self, num_agents: int, striping_unit: int):
        if num_agents < 1:
            raise ValueError(f"need at least one agent, got {num_agents}")
        if striping_unit < 1:
            raise ValueError(f"striping unit must be >= 1, got {striping_unit}")
        self.num_agents = num_agents
        self.striping_unit = striping_unit

    @property
    def stripe_width(self) -> int:
        """Logical bytes per full stripe (unit × agents)."""
        return self.striping_unit * self.num_agents

    # -- forward mapping -----------------------------------------------------

    def stripe_of(self, offset: int) -> int:
        """The stripe index containing logical ``offset``."""
        self._check_offset(offset)
        return offset // self.stripe_width

    def locate(self, offset: int) -> tuple[int, int]:
        """Map a logical offset to (agent, agent_offset)."""
        self._check_offset(offset)
        stripe, within = divmod(offset, self.stripe_width)
        agent, unit_offset = divmod(within, self.striping_unit)
        return agent, stripe * self.striping_unit + unit_offset

    def chunks(self, offset: int, length: int) -> Iterator[Chunk]:
        """The request [offset, offset+length) cut at unit boundaries.

        Yielded in logical order; each chunk lies within one unit on one
        agent.
        """
        self._check_offset(offset)
        if length < 0:
            raise ValueError("length must be non-negative")
        # locate() and stripe_of(), inlined: a transfer cuts one chunk
        # per unit.
        unit = self.striping_unit
        width = unit * self.num_agents
        position = offset
        end = offset + length
        while position < end:
            stripe, within = divmod(position, width)
            agent, unit_offset = divmod(within, unit)
            span = min(unit - unit_offset, end - position)
            yield Chunk(agent, stripe * unit + unit_offset, position, span,
                        stripe)
            position += span

    def agent_segments(self, offset: int, length: int) -> dict[int, list[Chunk]]:
        """Chunks grouped per agent, each list in agent-offset order."""
        grouped: dict[int, list[Chunk]] = {}
        for chunk in self.chunks(offset, length):
            grouped.setdefault(chunk.agent, []).append(chunk)
        return grouped

    # -- inverse mapping -------------------------------------------------------

    def logical_offset(self, agent: int, agent_offset: int) -> int:
        """Map (agent, agent_offset) back to the logical offset."""
        if not 0 <= agent < self.num_agents:
            raise ValueError(f"agent {agent} out of range")
        if agent_offset < 0:
            raise ValueError("agent offset must be non-negative")
        stripe, unit_offset = divmod(agent_offset, self.striping_unit)
        return (stripe * self.stripe_width
                + agent * self.striping_unit
                + unit_offset)

    def agent_lengths(self, total_size: int) -> list[int]:
        """Local file size of each agent for an object of ``total_size``."""
        if total_size < 0:
            raise ValueError("total size must be non-negative")
        full_stripes, remainder = divmod(total_size, self.stripe_width)
        base = full_stripes * self.striping_unit
        lengths = []
        for agent in range(self.num_agents):
            extra = min(max(remainder - agent * self.striping_unit, 0),
                        self.striping_unit)
            lengths.append(base + extra)
        return lengths

    def logical_size(self, agent_sizes: list[int]) -> int:
        """Recover the object size from the agents' local file sizes.

        The object size is one past the highest logical offset stored on
        any agent.
        """
        if len(agent_sizes) != self.num_agents:
            raise ValueError(
                f"expected {self.num_agents} sizes, got {len(agent_sizes)}")
        best = 0
        for agent, size in enumerate(agent_sizes):
            if size < 0:
                raise ValueError("agent sizes must be non-negative")
            if size:
                best = max(best, self.logical_offset(agent, size - 1) + 1)
        return best

    # -- stripe geometry -----------------------------------------------------------

    def stripe_bounds(self, stripe: int) -> tuple[int, int]:
        """Logical [start, end) of a stripe."""
        if stripe < 0:
            raise ValueError("stripe must be non-negative")
        start = stripe * self.stripe_width
        return start, start + self.stripe_width

    def unit_bounds(self, stripe: int, agent: int) -> tuple[int, int]:
        """Logical [start, end) of one agent's unit within a stripe."""
        start, _ = self.stripe_bounds(stripe)
        if not 0 <= agent < self.num_agents:
            raise ValueError(f"agent {agent} out of range")
        unit_start = start + agent * self.striping_unit
        return unit_start, unit_start + self.striping_unit

    def agent_unit_offset(self, stripe: int) -> int:
        """Agent-file offset of any agent's unit for ``stripe``."""
        if stripe < 0:
            raise ValueError("stripe must be non-negative")
        return stripe * self.striping_unit

    @staticmethod
    def _check_offset(offset: int) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")

    def __repr__(self) -> str:
        return (f"<StripeLayout agents={self.num_agents} "
                f"unit={self.striping_unit}>")
