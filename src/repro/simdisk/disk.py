"""Disk device model: a shared resource with positioned-access service times.

This is exactly the §5.1 model: "The disk devices are modeled as a shared
resource.  Multiblock requests are allowed to complete before the resource is
relinquished.  The time to transfer a block consists of the seek time, the
rotational delay and the time to transfer the data from disk.  The seek time
and rotational latency are assumed to be independent uniform random
variables."

Sequential transfers (used by the prototype emulation, where files are laid
out contiguously) can skip the positioning cost after the first block.
"""

from __future__ import annotations

from typing import Optional

from ..des import (
    CallbackProcess,
    Environment,
    RandomStream,
    Resource,
    UtilizationMonitor,
)
from .models import DiskSpec

__all__ = ["Disk", "DiskAccess"]


class Disk:
    """One spindle as a DES component.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Device parameters from :mod:`repro.simdisk.models`.
    stream:
        Random stream for seek/rotation draws.  ``None`` uses the expected
        values deterministically (useful for calibration tests).
    """

    def __init__(self, env: Environment, spec: DiskSpec,
                 stream: Optional[RandomStream] = None):
        self.env = env
        self.spec = spec
        self.stream = stream
        self.resource = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.blocks_served = 0
        self.bytes_served = 0
        #: Disk block the head sits after, for cross-request sequentiality
        #: (None = unknown position, e.g. after an unaddressed access).
        self._head: Optional[int] = None

    # -- service time draws ----------------------------------------------------

    def draw_positioning_time(self) -> float:
        """One seek + one rotational delay (random if a stream was given)."""
        if self.stream is None:
            return self.spec.avg_seek_s + self.spec.avg_rotation_s
        return (self.stream.uniform_mean(self.spec.avg_seek_s)
                + self.stream.uniform_mean(self.spec.avg_rotation_s))

    def block_service_time(self, nbytes: int) -> float:
        """Positioned access time for one block of ``nbytes``."""
        return self.draw_positioning_time() + self.spec.transfer_time(nbytes)

    # -- DES process methods -----------------------------------------------------

    def access_op(self, nbytes: int, blocks: int = 1,
                  sequential: bool = False,
                  at_block: Optional[int] = None,
                  per_block_extra_s: float = 0.0,
                  on_block=None) -> "DiskAccess":
        """Acquire the spindle and transfer ``blocks`` blocks of ``nbytes``.

        Per the paper, a multiblock request holds the resource until every
        block is done, and each block pays full positioning.  With
        ``sequential=True`` only the first block pays positioning — used for
        contiguous-layout file transfers in the prototype emulation.

        ``at_block`` is the starting disk-block address; when it continues
        exactly where the head already sits, even the first block's
        positioning is skipped (cross-request sequential access, the reason
        single-block sequential reads run at media speed on real disks).

        ``per_block_extra_s`` adds fixed per-block service (controller /
        driver / rotational-miss overhead) *inside* the spindle hold, so
        it consumes disk capacity like the real thing.

        ``on_block(index)`` is called as each block completes, while the
        request still holds the spindle — buffer caches use it to publish
        blocks to waiting readers as they stream off the platter.

        Returns a started :class:`DiskAccess` — an event a generator
        process can ``yield`` (value: total service time) or a callback
        process can ``wait`` on.  When no ``on_block`` needs
        intermediate completions, the whole multiblock chain lands as
        one pre-drawn completion event.
        """
        return DiskAccess(self, nbytes, blocks, sequential, at_block,
                          per_block_extra_s, on_block)

    # -- bookkeeping -----------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of simulated time the spindle was busy."""
        return self.monitor.utilization()

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the spindle."""
        return self.resource.queue_length

    def __repr__(self) -> str:
        return f"<Disk {self.spec.name} served={self.blocks_served} blocks>"


class DiskAccess(CallbackProcess):
    """One spindle access, started immediately (see :meth:`Disk.access_op`).

    The head continuation is read after the grant; each block draws its
    positioning in block order, bumps the counters and calls
    ``on_block`` as it completes; the head update and the idle-if-last
    check run before the release.  The disk chain is a span-coalescing
    site: with no ``on_block``, the per-block service times are
    pre-drawn in block order — legal because this process holds the
    spindle and per-disk streams are drawn only by the spindle holder —
    and land as a single computed completion
    (:meth:`~repro.des.callback.CallbackProcess.wait_at`) at the instant
    the expanded chain would end, monitored or not.
    """

    __slots__ = ("disk", "nbytes", "blocks", "sequential", "at_block",
                 "per_block_extra_s", "on_block",
                 "_started", "_grant", "_head_continues", "_index")

    def __init__(self, disk: Disk, nbytes: int, blocks: int = 1,
                 sequential: bool = False, at_block: Optional[int] = None,
                 per_block_extra_s: float = 0.0, on_block=None):
        # Argument validation must precede the start, which the
        # constructor runs.
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if per_block_extra_s < 0:
            raise ValueError("per_block_extra_s must be non-negative")
        self.disk = disk
        self.nbytes = nbytes
        self.blocks = blocks
        self.sequential = sequential
        self.at_block = at_block
        self.per_block_extra_s = per_block_extra_s
        self.on_block = on_block
        super().__init__(disk.env)

    def _start(self, value):
        self._started = self.env.now
        resource = self.disk.resource
        if resource.try_acquire():
            self._grant = None
            self._granted(None)
        else:
            self._grant = grant = resource.request()
            self.wait(grant, self._granted)

    def _granted(self, value):
        disk = self.disk
        # The head position must be read *after* the grant: requests
        # that queued ahead of us may have moved it.
        head_continues = (self.at_block is not None
                          and self.at_block == disk._head)
        now = self.env.now
        disk.monitor.busy(now)
        if self.on_block is None:
            spec = disk.spec
            nbytes = self.nbytes
            extra = self.per_block_extra_s
            sequential = self.sequential
            when = now
            for index in range(self.blocks):
                service = spec.transfer_time(nbytes) + extra
                if index == 0:
                    if not head_continues:
                        service += disk.draw_positioning_time()
                elif not sequential:
                    service += disk.draw_positioning_time()
                when += service
            self.wait_at(when, self._span_done)
            return
        self._head_continues = head_continues
        self._index = 0
        self._next_block()

    def _next_block(self):
        disk = self.disk
        service = disk.spec.transfer_time(self.nbytes) \
            + self.per_block_extra_s
        if self._index == 0:
            if not self._head_continues:
                service += disk.draw_positioning_time()
        elif not self.sequential:
            service += disk.draw_positioning_time()
        self.wait_timeout(service, self._block_done)

    def _block_done(self, value):
        disk = self.disk
        disk.blocks_served += 1
        disk.bytes_served += self.nbytes
        on_block = self.on_block
        if on_block is not None:
            on_block(self._index)
        self._index += 1
        if self._index < self.blocks:
            self._next_block()
            return
        self._complete()

    def _span_done(self, value):
        disk = self.disk
        disk.blocks_served += self.blocks
        disk.bytes_served += self.blocks * self.nbytes
        self._complete()

    def _complete(self):
        # In order: head update, idle check while still holding, the
        # release, then the finish.
        disk = self.disk
        now = self.env.now
        disk._head = (self.at_block + self.blocks
                      if self.at_block is not None else None)
        if disk.resource.count <= 1:
            disk.monitor.idle(now)
        if self._grant is None:
            disk.resource.release_slot()
        else:
            disk.resource.release_quiet(self._grant)
            self._grant = None
        self._finish(now - self._started)
