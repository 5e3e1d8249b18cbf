"""Seeded random-variate streams for simulation models.

Every stochastic model component draws from its own :class:`RandomStream`, so
runs are reproducible and components are statistically independent.  Streams
are spawned from a :class:`StreamFactory` keyed by name, so adding a new
component does not perturb the draws of existing ones.

Streams accept an optional *observer* — a callable invoked (with the
stream) before every draw.  The runtime sanitizer
(:mod:`repro.check.sanitize`) uses this to detect two components sharing
one stream, which would entangle their draw sequences and make results
depend on event interleaving.

**Block sampling.**  The float distributions (:meth:`~RandomStream.exponential`,
:meth:`~RandomStream.uniform`, :meth:`~RandomStream.uniform_mean`,
:meth:`~RandomStream.bernoulli`) — the only draws the models make — do not
call into :mod:`random`'s Python-level wrappers per draw.  Instead each
stream buffers a block of :data:`BLOCK_SIZE` raw ``random()`` uniforms
(refilled straight from the C core) and applies the *exact* arithmetic
CPython's ``expovariate`` and ``uniform`` wrappers would apply —
``-log(1-u)/lambd`` and ``a+(b-a)*u`` — so the draw sequence is
bit-identical to the per-sample reference, pinned by tests at draw
counts either side of a refill boundary.
"""

from __future__ import annotations

import random
from math import log as _log
from typing import Callable, Optional

__all__ = ["RandomStream", "StreamFactory", "BLOCK_SIZE"]

#: How many raw uniforms each stream buffers per refill.  Refills cost one
#: C call per uniform, the same as the per-sample reference pays — the
#: block only exists to skip :mod:`random`'s Python-level wrapper frames.
BLOCK_SIZE = 256


class RandomStream:
    """A named, seeded source of the variates the paper's models need."""

    __slots__ = ("_rng", "name", "observer", "_block")

    def __init__(self, seed: int, name: str = ""):
        self._rng = random.Random(seed)
        self.name = name
        #: Called with this stream before every draw (sanitizer hook).
        self.observer: Optional[Callable[["RandomStream"], None]] = None
        #: Buffered raw uniforms, stored reversed so ``pop()`` serves them
        #: in draw order.
        self._block: list[float] = []

    def _refill(self) -> list[float]:
        """Draw a fresh block of raw uniforms from the core."""
        draw = self._rng.random
        block = self._block = [draw() for _ in range(BLOCK_SIZE)]
        block.reverse()
        return block

    # -- distributions -------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (interarrival times)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if self.observer is not None:
            self.observer(self)
        block = self._block
        if not block:
            block = self._refill()
        # Bit-identical to random.Random.expovariate(1.0 / mean).
        return -_log(1.0 - block.pop()) / (1.0 / mean)

    def uniform(self, low: float, high: float) -> float:
        """Uniform variate on [low, high] (seek times, rotational delay)."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high}]")
        if self.observer is not None:
            self.observer(self)
        block = self._block
        if not block:
            block = self._refill()
        # Bit-identical to random.Random.uniform(low, high).
        return low + (high - low) * block.pop()

    def uniform_mean(self, mean: float) -> float:
        """Uniform variate on [0, 2*mean] — the paper's seek/rotation model.

        §5.1: "The seek time and rotational latency are assumed to be
        independent uniform random variables" with the catalogued averages.
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if self.observer is not None:
            self.observer(self)
        block = self._block
        if not block:
            block = self._refill()
        # Bit-identical to random.Random.uniform(0.0, 2.0 * mean).
        return 0.0 + (2.0 * mean - 0.0) * block.pop()

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability (packet loss)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        if self.observer is not None:
            self.observer(self)
        block = self._block
        if not block:
            block = self._refill()
        return block.pop() < probability

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"<RandomStream {label}>"


class StreamFactory:
    """Spawns independent named streams from one master seed.

    The child seed is a hash of (master seed, name), so the draw sequence of
    one component never depends on how many other components exist.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._issued: dict[str, RandomStream] = {}
        self._observer: Optional[Callable[[RandomStream], None]] = None

    def stream(self, name: str) -> RandomStream:
        """The stream for ``name`` (created on first use, then cached)."""
        if name not in self._issued:
            child_seed = self._derive(name)
            issued = RandomStream(child_seed, name=name)
            issued.observer = self._observer
            self._issued[name] = issued
        return self._issued[name]

    def attach_observer(self,
                        observer: Callable[[RandomStream], None]) -> None:
        """Install ``observer`` on every issued and future stream."""
        self._observer = observer
        for stream in self._issued.values():
            stream.observer = observer

    def detach_observer(self) -> None:
        """Remove the observer from every issued and future stream."""
        self._observer = None
        for stream in self._issued.values():
            stream.observer = None

    def _derive(self, name: str) -> int:
        # A small, stable string hash (Python's hash() is salted per run).
        digest = 2166136261
        for char in f"{self.master_seed}/{name}":
            digest = (digest ^ ord(char)) * 16777619 % (1 << 64)
        return digest

    def __contains__(self, name: str) -> bool:
        return name in self._issued
