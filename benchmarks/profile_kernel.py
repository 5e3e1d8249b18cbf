"""Profile a Figure 5-shaped model run and archive the hot-spot table.

Not a benchmark — a diagnosis tool: ``make profile`` (or running this
file directly) cProfiles one fig5-shaped ``SwiftSimModel`` run, prints
the top ``--top`` functions by cumulative time, and saves two artifacts
under ``benchmarks/results/``:

* ``PROFILE_kernel.pstats`` — the raw dump, loadable with
  ``python -m pstats`` or snakeviz for drill-down (CI uploads it from
  the bench-smoke job, so a regression flagged by the gate comes with
  the profile that explains it);
* ``PROFILE_kernel.txt`` — the printed table, for quick diffing.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _common import RESULTS_DIR, scaled  # noqa: E402

from repro.sim.model import SwiftSimModel  # noqa: E402
from repro.sim.workload import SimConfig  # noqa: E402

#: Figure 5 shape: the densest event stream the paper sweeps, so the
#: kernel dominates the profile instead of model setup.
FIG5_STYLE = SimConfig(num_requests=scaled(480, 240),
                       warmup_requests=scaled(48, 24),
                       arrival_rate=60.0,
                       transfer_unit=4096, request_size=1 << 16)


def profile_run(top: int) -> tuple[Path, Path]:
    """Profile one run; returns (pstats path, text path)."""
    model = SwiftSimModel(FIG5_STYLE)
    profiler = cProfile.Profile()
    profiler.enable()
    result = model.run()
    profiler.disable()

    RESULTS_DIR.mkdir(exist_ok=True)
    dump = RESULTS_DIR / "PROFILE_kernel.pstats"
    profiler.dump_stats(dump)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    table = buffer.getvalue()
    header = (f"fig5-shaped run: {result.completed} requests, "
              f"{model.env._eid} events, sim time {result.duration_s:.2f}s\n")
    text = RESULTS_DIR / "PROFILE_kernel.txt"
    text.write_text(header + table)
    print(header + table, end="")
    print(f"profile: raw dump -> {dump}\nprofile: table    -> {text}")
    return dump, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time table "
                             "(default: 20)")
    options = parser.parse_args(argv)
    profile_run(options.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
