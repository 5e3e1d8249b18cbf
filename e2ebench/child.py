"""One benchmark process: import the program, build the grid, run it once.

``run.py`` starts this in a fresh interpreter::

    python3 child.py <workload> <seed> <mode> <result.json>

``mode`` is ``setup`` (stop just before the artifact call), ``plain``
(the timed run), ``trace`` (spans and counters, see ``tracer.py``) or
``profile`` (cProfile self time per package).  The result file carries
``setup_end`` -- the monotonic clock just before the first artifact call,
which run.py subtracts from the moment it started the interpreter -- and,
past setup, the wall time, the cells and the process's own peak RSS.
"""

import json
import os
import resource
import sys
import time


def _package_self_times(profiler) -> dict:
    """cProfile self seconds per repro subpackage, 'stdlib' for the rest."""
    import pstats

    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    here = os.path.dirname(os.path.abspath(__file__)) + os.sep
    seconds: dict = {}
    for (filename, _, _), (_, _, self_s, _, _) in \
            pstats.Stats(profiler).stats.items():
        path = os.path.abspath(filename) if filename != "~" else filename
        if path.startswith(package_root):
            relative = path[len(package_root):]
            package = relative.split(os.sep)[0] if os.sep in relative \
                else "repro"
        elif path.startswith(here):
            package = "harness"
        else:
            package = "stdlib"
        seconds[package] = seconds.get(package, 0.0) + self_s
    return seconds


def main(argv) -> int:
    workload, seed, mode, out = argv[1], int(argv[2]), argv[3], argv[4]
    import workloads

    contract = workloads.load_json("contract.json")
    program = workloads.import_program(workload)
    grid = workloads.make_grid(contract, workload, seed)
    record = {"setup_end": time.monotonic()}
    if mode != "setup":
        span = workloads.null_span
        profiler = None
        if mode == "trace":
            import tracer
            span = tracer.install(os.environ[tracer.ENV_VAR]).span
        elif mode == "profile":
            import cProfile
            profiler = cProfile.Profile()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        with span("artifact"):
            cells = workloads.run(workload, program, grid, span)
        if profiler is not None:
            profiler.disable()
        record["wall_s"] = time.perf_counter() - start
        record["cells"] = cells
        record["self_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if profiler is not None:
            record["profile"] = _package_self_times(profiler)
    with open(out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
