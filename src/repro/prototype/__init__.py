"""The §3-§4 prototype emulation: calibration, testbed, Tables 1-4."""

from .. import _lazy_exports

#: Each export -> the submodule that defines it, loaded on first access
#: (``calibration`` is the submodule itself).
_EXPORTS = {
    "calibration": "calibration",
    "PrototypeTestbed": "testbed",
    "run_swift_table": "experiments",
    "run_scsi_table": "experiments",
    "run_nfs_table": "experiments",
    "format_table": "report",
    "format_comparison": "report",
    "PAPER_TABLE1": "experiments",
    "PAPER_TABLE2": "experiments",
    "PAPER_TABLE3": "experiments",
    "PAPER_TABLE4": "experiments",
    "SIZES_MB": "experiments",
    "NUM_SAMPLES": "experiments",
    "MEGABYTE": "experiments",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
