"""A small block file system over a simulated disk.

This plays the role the Unix file system plays in the prototype (§3: "The
storage agents are represented by Unix processes on servers which use the
standard Unix file system").  It both *stores real bytes* — so end-to-end
data integrity of the striping/parity stack can be checked — and *accounts
simulated time* on the underlying :class:`~repro.simdisk.disk.Disk`.

Semantics:

* files are byte-addressed, sparse (holes read as zeros), grow on write;
* synchronous writes go through to the disk before returning (NFS servers,
  local sync writes);
* asynchronous writes dirty the buffer cache and return after the memory
  copy; :meth:`LocalFileSystem.sync` writes the dirty blocks back (SunOS
  update-style);
* a cold cache is obtained with :meth:`LocalFileSystem.flush_cache` —
  the paper's ``/etc/umount`` trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..des import Environment
from .cache import BufferCache
from .disk import Disk

__all__ = ["LocalFileSystem", "FileSystemError", "FileNotFound", "FileExists"]


class FileSystemError(Exception):
    """Base error for the simulated file system."""


class FileNotFound(FileSystemError):
    """Operation on a file that does not exist."""


class FileExists(FileSystemError):
    """Exclusive create of a file that already exists."""


@dataclass
class _Inode:
    """Per-file metadata: size plus the blocks that have ever been written."""

    size: int = 0
    blocks: dict[int, int] = field(default_factory=dict)  # file block -> disk block
    contiguous: bool = True


class LocalFileSystem:
    """Block file system with simple sequential allocation.

    Parameters
    ----------
    env, disk:
        The simulation environment and backing spindle.
    block_size:
        File system block size (the prototype-era Unix FS used 8 KB).
    cache_blocks:
        Buffer cache capacity in blocks.
    read_block_overhead_s / write_block_overhead_s:
        Per-block software + rotational-miss overhead added on top of the
        raw media time; calibrated per host in ``prototype/calibration.py``.
    contiguous_allocation:
        When True (default) files get consecutive disk blocks, so
        sequential transfers skip positioning after the first block.
    """

    def __init__(
        self,
        env: Environment,
        disk: Disk,
        block_size: int = 8192,
        cache_blocks: int = 512,
        read_block_overhead_s: float = 0.0,
        write_block_overhead_s: float = 0.0,
        contiguous_allocation: bool = True,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.env = env
        self.disk = disk
        self.block_size = block_size
        self.cache = BufferCache(cache_blocks)
        self.read_block_overhead_s = read_block_overhead_s
        self.write_block_overhead_s = write_block_overhead_s
        self.contiguous_allocation = contiguous_allocation
        self._inodes: dict[str, _Inode] = {}
        self._store: dict[int, bytes] = {}
        self._next_disk_block = 0
        # In-flight reads: block -> completion event, or None until a
        # second reader wants the block.  That reader waits for the I/O
        # instead of issuing a duplicate disk access (as a real buffer
        # cache does).
        self._inflight: dict[int, object] = {}

    # -- namespace --------------------------------------------------------------

    def create(self, name: str, exclusive: bool = False) -> None:
        """Create an empty file (idempotent unless ``exclusive``)."""
        if name in self._inodes:
            if exclusive:
                raise FileExists(name)
            return
        self._inodes[name] = _Inode()

    def exists(self, name: str) -> bool:
        """True if the file exists."""
        return name in self._inodes

    def file_size(self, name: str) -> int:
        """Current size in bytes."""
        return self._inode(name).size

    def unlink(self, name: str) -> None:
        """Remove a file and drop its cached blocks."""
        inode = self._inode(name)
        for disk_block in inode.blocks.values():
            self._store.pop(disk_block, None)
            self.cache.invalidate(disk_block)
        del self._inodes[name]

    def list_files(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._inodes)

    # -- data path ---------------------------------------------------------------

    def write(self, name: str, offset: int, data: bytes, sync: bool = False):
        """Process method: write ``data`` at ``offset``.

        Asynchronous writes (default) only dirty the cache; synchronous
        writes pay the disk before returning.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        inode = self._inode(name)
        touched = self._apply_write(inode, offset, data)
        if sync and touched:
            # Write-through: contiguous runs are written in one disk pass.
            yield from self._disk_write(touched)
            for disk_block in touched:
                self.cache.clean(disk_block)
        # An async write only dirties the cache: its memory-copy cost is
        # charged by the host CPU model (simnet.host), so it takes no time.
        return len(data)

    def read(self, name: str, offset: int, nbytes: int):
        """Process method: read up to ``nbytes`` at ``offset``.

        Returns the bytes actually read (short at end of file).  Cache hits
        cost nothing; misses pay the disk, with positioning amortised over
        contiguous misses.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        inode = self._inode(name)
        nbytes = max(0, min(nbytes, inode.size - offset))
        if nbytes == 0:
            yield self.env.timeout(0.0)
            return b""

        first_block = offset // self.block_size
        last_block = (offset + nbytes - 1) // self.block_size
        chunks: list[bytes] = []
        pending_misses: list[int] = []
        for file_block in range(first_block, last_block + 1):
            disk_block = inode.blocks.get(file_block)
            if disk_block is None:
                chunks.append(b"\x00" * self.block_size)  # hole
                continue
            cached = self.cache.lookup(disk_block)
            if cached is None:
                pending_misses.append(disk_block)
                chunks.append(
                    self._store.get(disk_block, b"\x00" * self.block_size))
            else:
                chunks.append(cached)
        if pending_misses:
            to_fetch, fetching = self._claim(pending_misses)
            waiters = []
            for disk_block in fetching:
                event = self._inflight[disk_block]
                if event is None:
                    event = self._inflight[disk_block] = self.env.event()
                waiters.append(event)
            if to_fetch:
                yield from self._fetch(to_fetch)
            for event in waiters:
                if not event.processed:
                    yield event
        data = b"".join(chunks)
        start = offset - first_block * self.block_size
        return data[start:start + nbytes]

    def prefetch(self, name: str, offset: int, nbytes: int) -> None:
        """Read ahead into the cache without building the bytes.

        Makes the cache lookups, in-flight marks and disk accesses of
        ``read(name, offset, nbytes)`` at the call's instant, for a caller
        that would throw read()'s result away.  A block another read
        already has in flight is left to that read, and no process starts
        when no block is left to fetch.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        inode = self._inode(name)
        nbytes = min(nbytes, inode.size - offset)
        if nbytes <= 0:
            return
        blocks = inode.blocks
        lookup = self.cache.lookup
        misses = []
        for file_block in range(offset // self.block_size,
                                (offset + nbytes - 1) // self.block_size + 1):
            disk_block = blocks.get(file_block)
            if disk_block is not None and lookup(disk_block) is None:
                misses.append(disk_block)
        to_fetch, _ = self._claim(misses)
        if to_fetch:
            self.env.process(self._fetch(to_fetch))

    def sync(self, name: Optional[str] = None):
        """Process method: write back dirty blocks (one file or all)."""
        if name is None:
            dirty = sorted(self.cache.dirty_keys())
        else:
            inode = self._inode(name)
            mine = set(inode.blocks.values())
            dirty = sorted(key for key in self.cache.dirty_keys() if key in mine)
        if dirty:
            yield from self._disk_write(dirty)
            for disk_block in dirty:
                self.cache.clean(disk_block)
        else:
            yield self.env.timeout(0.0)
        return len(dirty)

    def flush_cache(self) -> int:
        """Cold-cache the file system (the paper's /etc/umount).

        Dirty data is preserved in the backing store (this model applies
        writes to the store immediately), so flushing never loses bytes.
        Returns the number of blocks that were dirty.
        """
        return len(self.cache.flush())

    # -- internals ---------------------------------------------------------------

    def _inode(self, name: str) -> _Inode:
        try:
            return self._inodes[name]
        except KeyError:
            raise FileNotFound(name) from None

    def _allocate_block(self, inode: _Inode, file_block: int) -> int:
        if self.contiguous_allocation:
            disk_block = self._next_disk_block
            self._next_disk_block += 1
        else:
            # Scatter allocation: stride the block number so consecutive
            # file blocks are never adjacent on disk.
            disk_block = self._next_disk_block * 7919 + 13
            self._next_disk_block += 1
        if file_block > 0 and (file_block - 1) in inode.blocks:
            if inode.blocks[file_block - 1] + 1 != disk_block:
                inode.contiguous = False
        # Every live block of every file is in the store (unlink pops
        # freed ones), so this catches reuse across files in O(1).
        if disk_block in self._store:
            raise FileSystemError(
                f"allocator handed out block {disk_block}, already in use")
        inode.blocks[file_block] = disk_block
        return disk_block

    def _apply_write(self, inode: _Inode, offset: int, data: bytes) -> list[int]:
        """Install bytes into the store; returns the disk blocks touched."""
        touched: list[int] = []
        position = offset
        # Any bytes-like object works directly: the view is fully consumed
        # (copied into the block store) before this method returns, so no
        # aliasing with the caller's buffer can outlive the call.
        remaining = memoryview(data)
        while remaining.nbytes:
            file_block = position // self.block_size
            within = position % self.block_size
            span = min(self.block_size - within, remaining.nbytes)
            disk_block = inode.blocks.get(file_block)
            if disk_block is None:
                disk_block = self._allocate_block(inode, file_block)
            if span == self.block_size:
                # A whole block: one copy, nothing of the old one stays.
                new = remaining[:span].tobytes()
            else:
                old = self._store.get(disk_block)
                block = (bytearray(old) if old is not None
                         else bytearray(self.block_size))
                block[within:within + span] = remaining[:span]
                new = bytes(block)
            self._store[disk_block] = new
            self.cache.insert(disk_block, new, dirty=True)
            touched.append(disk_block)
            position += span
            remaining = remaining[span:]
        inode.size = max(inode.size, offset + len(data))
        return touched

    def _claim(self, misses: list[int]) -> tuple[list[int], list[int]]:
        """Mark the missed blocks no read has in flight as the caller's.

        Returns those blocks, to fetch, and the ones another read already
        fetches.
        """
        inflight = self._inflight
        to_fetch: list[int] = []
        fetching: list[int] = []
        for disk_block in misses:
            if disk_block in inflight:
                fetching.append(disk_block)
            else:
                inflight[disk_block] = None
                to_fetch.append(disk_block)
        return to_fetch, fetching

    def _fetch(self, disk_blocks: list[int]):
        """Process method: read claimed blocks, publishing each as it lands.

        One spindle access per contiguous run, positioned at most once.
        """
        try:
            for run in self._runs(disk_blocks):
                def publish(index, run=run):
                    self._publish_block(run[index])
                yield self.disk.access_op(
                    self.block_size, blocks=len(run), sequential=True,
                    at_block=run[0],
                    per_block_extra_s=self.read_block_overhead_s,
                    on_block=publish)
        finally:
            # Safety: if the access aborted mid-run, release any readers
            # still parked on unpublished blocks.
            for disk_block in disk_blocks:
                if disk_block in self._inflight:
                    self._publish_block(disk_block)

    def _publish_block(self, disk_block: int) -> None:
        """A block's I/O completed: cache it and wake waiting readers.

        Called per block while the disk is still working on the rest of
        the run, so a reader needing an early block of a long read-ahead
        does not wait for the whole cluster.
        """
        self.cache.insert(
            disk_block,
            self._store.get(disk_block, b"\x00" * self.block_size))
        event = self._inflight.pop(disk_block, None)
        if event is not None:
            event.succeed()

    def _runs(self, disk_blocks: list[int]) -> list[list[int]]:
        """Split sorted block ids into maximal contiguous runs."""
        runs: list[list[int]] = []
        for block in sorted(disk_blocks):
            if runs and block == runs[-1][-1] + 1:
                runs[-1].append(block)
            else:
                runs.append([block])
        return runs

    def _disk_write(self, disk_blocks: list[int]):
        for run in self._runs(disk_blocks):
            yield self.disk.access_op(
                self.block_size, blocks=len(run), sequential=True,
                at_block=run[0],
                per_block_extra_s=self.write_block_overhead_s)
