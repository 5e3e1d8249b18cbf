"""An LRU buffer cache with the cold-cache controls the paper relies on.

§4: "Maintaining cold caches was achieved by using /etc/umount to flush the
caches as a side effect."  :meth:`BufferCache.flush` is that umount.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["BufferCache", "CacheStats"]


class CacheStats:
    """Hit/miss counters for one cache."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over accesses; 0.0 when the cache was never touched."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class BufferCache:
    """Fixed-capacity LRU cache of disk blocks.

    Keys are arbitrary hashable block identifiers; values are the cached
    block payloads.  Dirty blocks are tracked so a flush can report what
    would have to be written back.
    """

    def __init__(self, capacity_blocks: int):
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self._blocks: OrderedDict[Hashable, bytes] = OrderedDict()
        self._dirty: set[Hashable] = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._blocks

    def lookup(self, key: Hashable) -> Optional[bytes]:
        """Return the cached block (promoting it), or None on a miss."""
        block = self._blocks.get(key)
        if block is None:
            self.stats.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.stats.hits += 1
        return block

    def insert(self, key: Hashable, block: bytes, dirty: bool = False) -> list[Hashable]:
        """Install a block, evicting LRU entries as needed.

        Returns the keys of evicted *dirty* blocks (the caller must write
        them back).
        """
        writebacks: list[Hashable] = []
        if key in self._blocks:
            self._blocks.move_to_end(key)
        self._blocks[key] = block
        if dirty:
            self._dirty.add(key)
        while len(self._blocks) > self.capacity_blocks:
            victim, _ = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.stats.writebacks += 1
                writebacks.append(victim)
        return writebacks

    def clean(self, key: Hashable) -> None:
        """Mark a block as written back."""
        self._dirty.discard(key)

    def dirty_keys(self) -> set[Hashable]:
        """The set of blocks that would need write-back on flush."""
        return set(self._dirty)

    def invalidate(self, key: Hashable) -> None:
        """Drop one block without write-back accounting."""
        self._blocks.pop(key, None)
        self._dirty.discard(key)

    def flush(self) -> list[Hashable]:
        """Empty the cache (the /etc/umount trick); returns dirty keys."""
        dirty = sorted(self._dirty, key=repr)
        self._blocks.clear()
        self._dirty.clear()
        return dirty
