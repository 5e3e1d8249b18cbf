"""Catalog of the disk devices the paper measures and simulates.

Figure captions in §5 pin the Fujitsu M2372K at average seek 16 ms, average
rotational delay 8.3 ms and a 2.5 MB/s transfer rate, and Figure 4 uses a
1.5 MB/s variant.  The remaining drives in Figures 5 and 6 (IBM 3380K,
Fujitsu M2361A and M2351A, Wren V, DEC RA82) are catalogued here with their
published late-1980s specifications; EXPERIMENTS.md records the provenance.

All times are seconds, all rates bytes/second (converted from the
datasheet units at construction).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import KIB, MIB, mb_per_s, ms

__all__ = ["DiskSpec", "DISK_CATALOG", "FIGURE_5_6_DISKS"]

MEGABYTE = MIB
KILOBYTE = KIB


@dataclass(frozen=True)
class DiskSpec:
    """Service-time parameters of one disk model.

    The simulation's per-block access time is ``seek + rotation + size/rate``
    with seek and rotation drawn uniform with the given averages (§5.1).
    """

    name: str
    avg_seek_s: float
    avg_rotation_s: float
    transfer_rate_bytes_per_s: float  # off the media
    capacity_bytes: int = 500 * MEGABYTE

    def __post_init__(self):
        if self.avg_seek_s < 0 or self.avg_rotation_s < 0:
            raise ValueError("seek/rotation averages must be non-negative")
        if self.transfer_rate_bytes_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Media transfer time for ``nbytes`` (no positioning)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.transfer_rate_bytes_per_s

    def mean_access_time(self, nbytes: int) -> float:
        """Expected positioned access time for one ``nbytes`` block.

        For the M2372K and 32 KB this is ~37 ms, which §5.2 states.
        """
        return self.avg_seek_s + self.avg_rotation_s + self.transfer_time(nbytes)


def _spec(name: str, seek_ms: float, rotation_ms: float, rate_mb_s: float,
          capacity_mb: int = 500) -> DiskSpec:
    return DiskSpec(
        name=name,
        avg_seek_s=ms(seek_ms),
        avg_rotation_s=ms(rotation_ms),
        transfer_rate_bytes_per_s=mb_per_s(rate_mb_s),
        capacity_bytes=capacity_mb * MEGABYTE,
    )


#: Every drive used anywhere in the reproduction, keyed by catalog name.
DISK_CATALOG: dict[str, DiskSpec] = {
    # §5 figure captions: the baseline simulated device.
    "Fujitsu M2372K": _spec("Fujitsu M2372K", 16.0, 8.3, 2.5, 824),
    # Figure 4's "slower storage device": same positioning, 1.5 MB/s media.
    "Fujitsu M2372K (1.5MB/s)": _spec("Fujitsu M2372K (1.5MB/s)", 16.0, 8.3, 1.5, 824),
    # Figures 5 and 6 legends, published specs of the era.
    "IBM 3380K": _spec("IBM 3380K", 16.0, 8.3, 3.0, 1890),
    "Fujitsu M2361A": _spec("Fujitsu M2361A", 16.7, 8.3, 2.5, 689),
    "Fujitsu M2351A": _spec("Fujitsu M2351A", 18.0, 8.3, 1.9, 474),
    "Wren V": _spec("Wren V", 16.5, 8.3, 1.7, 383),
    "DEC RA82": _spec("DEC RA82", 24.0, 8.3, 1.4, 622),
    # The prototype's hosts (Tables 1-2): small Sun SCSI disks.  The media
    # rate and the per-operation overheads in prototype/calibration.py are
    # chosen to land on the measured sequential rates (sync-mode read
    # ~670 KB/s, sync write ~315 KB/s).
    "Sun 207MB SCSI": _spec("Sun 207MB SCSI", 16.0, 8.3, 1.3, 207),
    "Sun 104MB SCSI": _spec("Sun 104MB SCSI", 16.0, 8.3, 1.3, 104),
    # The NFS server's IPI drives (Table 3): "rated at more than 3 MB/s".
    "Sun IPI": _spec("Sun IPI", 9.5, 8.3, 3.0, 1300),
}

#: The legend of Figures 5 and 6, top to bottom.
FIGURE_5_6_DISKS = [
    "IBM 3380K",
    "Fujitsu M2361A",
    "Fujitsu M2351A",
    "Wren V",
    "Fujitsu M2372K",
    "DEC RA82",
]
