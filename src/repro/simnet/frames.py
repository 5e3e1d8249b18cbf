"""Datagrams: the unit of transfer on the simulated networks.

A :class:`Datagram` is what the prototype's light-weight protocol calls a
"packet": a UDP datagram that the medium fragments into link frames
internally (the media models account for the per-fragment framing overhead
in their transmission-time arithmetic, so fragments are never materialised).

``message`` carries an arbitrary protocol object — for data packets it holds
real payload bytes, so data integrity is checked end to end.  ``size`` is
the on-the-wire size in bytes; header-only messages have a small size
regardless of the Python object inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Address", "Datagram", "HEADER_SIZE"]

#: UDP/IP header bytes carried by every datagram.
HEADER_SIZE = 28


@dataclass(frozen=True)
class Address:
    """A (host, port) endpoint."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Datagram:
    """One datagram in flight; two datagrams are equal only if they are
    the same object.

    Slotted, with the size check in ``__init__``: one is built per
    datagram sent.
    """

    __slots__ = ("src", "dst", "size", "message")

    def __init__(self, src: Address, dst: Address, size: int,
                 message: Any = None):
        if size < HEADER_SIZE:
            raise ValueError(
                f"datagram size {size} smaller than header {HEADER_SIZE}"
            )
        self.src = src
        self.dst = dst
        self.size = size  # bytes on the wire, headers included
        self.message = message

    def __repr__(self) -> str:
        kind = type(self.message).__name__ if self.message is not None else "raw"
        return f"<Datagram {self.src}->{self.dst} {self.size}B {kind}>"
