"""The 1 gigabit/second token-ring LAN of the §5 simulation study.

§5.1: "Transmitting a message on the network requires protocol processing,
time to acquire the token, and transmission time.  ...  The time to transmit
the packet is based on the network transfer rate."  Protocol processing is
charged at the hosts (see :mod:`repro.simnet.host`); this medium charges the
token acquisition and the wire time.

Token acquisition is modelled as half a token-rotation on an idle ring (the
expected wait for the token to come around), on top of the usual queueing
for the shared ring.
"""

from __future__ import annotations

from ..des import Environment, RandomStream
from ..units import seconds_to_send, to_bytes_per_s
from .medium import Medium, _WireParameter

__all__ = ["TokenRing"]


class TokenRing(Medium):
    """A shared token ring."""

    bits_per_second = _WireParameter()
    token_rotation_s = _WireParameter()

    def __init__(self, env: Environment, name: str = "token-ring",
                 bits_per_second: float = 1_000_000_000.0,
                 token_rotation_s: float = 20e-6,
                 loss_probability: float = 0.0,
                 loss_stream: RandomStream | None = None):
        super().__init__(env, name, loss_probability, loss_stream)
        if bits_per_second <= 0:
            raise ValueError("bits_per_second must be positive")
        if token_rotation_s < 0:
            raise ValueError("token rotation time must be non-negative")
        self.bits_per_second = bits_per_second
        self.token_rotation_s = token_rotation_s

    def nominal_capacity(self) -> float:
        return to_bytes_per_s(self.bits_per_second)

    def transmission_time(self, size: int) -> float:
        if size <= 0:
            raise ValueError("size must be positive")
        token_wait = self.token_rotation_s / 2.0
        return token_wait + seconds_to_send(size, self.bits_per_second)
