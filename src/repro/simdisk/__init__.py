"""Storage substrate: disk models, buffer cache, block file system, SCSI path."""

from .. import _lazy_exports

#: Each export -> the submodule that defines it, loaded on first access.
_EXPORTS = {
    "Disk": "disk",
    "DiskAccess": "disk",
    "DiskSpec": "models",
    "DISK_CATALOG": "models",
    "FIGURE_5_6_DISKS": "models",
    "BufferCache": "cache",
    "CacheStats": "cache",
    "LocalFileSystem": "filesystem",
    "FileSystemError": "filesystem",
    "FileNotFound": "filesystem",
    "FileExists": "filesystem",
    "ScsiMode": "scsi",
    "make_scsi_filesystem": "scsi",
    "RaidArray": "raid",
    "TapeDrive": "tape",
    "TapeSpec": "tape",
    "DAT_DDS1": "tape",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
