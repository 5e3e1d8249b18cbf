"""The §5 simulation study: Swift on a gigabit token ring (Figures 3-6)."""

from .. import _lazy_exports

#: Each export -> the submodule that defines it, loaded on first access.
_EXPORTS = {
    "SimConfig": "workload",
    "TraceRecord": "trace",
    "synthesize_poisson_trace": "trace",
    "synthesize_bursty_trace": "trace",
    "trace_mean_rate": "trace",
    "SwiftSimModel": "model",
    "SimResult": "model",
    "run_once": "sweep",
    "load_sweep": "sweep",
    "find_max_sustainable": "sweep",
    "run_many": "parallel",
    "parallel_load_sweep": "parallel",
    "find_max_sustainable_many": "parallel",
    "ResultCache": "cache",
    "config_key": "cache",
    "code_version": "cache",
    "FigurePoint": "figures",
    "figure3_series": "figures",
    "figure4_series": "figures",
    "figure5_series": "figures",
    "figure6_series": "figures",
    "FIG3_BLOCK_SIZES": "figures",
    "FIG3_DISK_COUNTS": "figures",
    "FIG4_DISK_COUNTS": "figures",
    "FIG56_DISK_COUNTS": "figures",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())
