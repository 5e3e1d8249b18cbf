"""Profile a Figure 5-shaped model run and a Table 3-shaped sample.

Not a benchmark — a diagnosis tool: ``make profile`` (or running this
file directly) cProfiles the two shapes users run most, prints the top
``--top`` functions of each by cumulative time, and saves two artifacts
per shape under ``benchmarks/results/``:

* ``PROFILE_kernel`` — one fig5-shaped ``SwiftSimModel`` run, the §5
  model on the DES kernel;
* ``PROFILE_tables`` — one Table 3-shaped sample, a 3 MB NFS read and
  write over the departmental Ethernet with its background load: the
  real protocol code over the prototype network and file systems.

Each shape writes ``.pstats`` — the raw dump, loadable with ``python -m
pstats`` or snakeviz for drill-down (CI uploads both from the
bench-smoke job, so a regression flagged by a gate comes with the
profile that explains it) — and ``.txt``, the printed table, for quick
diffing.
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

from repro.baselines import NfsBaseline  # noqa: E402
from repro.sim.model import SwiftSimModel  # noqa: E402
from repro.sim.workload import SimConfig  # noqa: E402

#: Figure 5 shape: the densest event stream the paper sweeps, so the
#: kernel dominates the profile instead of model setup.
FIG5_STYLE = SimConfig(num_requests=scaled(480, 240),
                       warmup_requests=scaled(48, 24),
                       arrival_rate=60.0,
                       transfer_unit=4096, request_size=1 << 16)

#: Table 3 shape: one of the paper's NFS samples (seed as Table 3's
#: first 3 MB sample).
TABLE3_SIZE = 3 << 20
TABLE3_SEED = 103


def _kernel_run():
    """The fig5-shaped model run; returns its summary line."""
    model = SwiftSimModel(FIG5_STYLE)
    result = model.run()
    return (f"fig5-shaped run: {result.completed} requests, "
            f"{model.env._eid} events, sim time {result.duration_s:.2f}s\n")


def _tables_run():
    """The Table 3-shaped sample; returns its summary line."""
    reader = NfsBaseline(seed=TABLE3_SEED)
    reader.prepare_file("f", TABLE3_SIZE)
    read = reader.measure_read("f", TABLE3_SIZE)
    writer = NfsBaseline(seed=TABLE3_SEED)
    write = writer.measure_write("f", TABLE3_SIZE)
    events = reader.env._eid + writer.env._eid
    return (f"Table 3-shaped sample: 3 MB NFS read {read:.0f} KB/s, "
            f"write {write:.0f} KB/s, {events} events\n")


def _profile(name: str, run, top: int) -> tuple[Path, Path]:
    """cProfile ``run()``; archive PROFILE_<name>.{pstats,txt}."""
    profiler = cProfile.Profile()
    profiler.enable()
    header = run()
    profiler.disable()

    RESULTS_DIR.mkdir(exist_ok=True)
    dump = RESULTS_DIR / f"PROFILE_{name}.pstats"
    profiler.dump_stats(dump)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    table = buffer.getvalue()
    text = RESULTS_DIR / f"PROFILE_{name}.txt"
    text.write_text(header + table)
    print(header + table, end="")
    print(f"profile: raw dump -> {dump}\nprofile: table    -> {text}")
    return dump, text


def profile_run(top: int) -> list[tuple[Path, Path]]:
    """Profile both shapes; returns their (pstats path, text path)."""
    return [_profile("kernel", _kernel_run, top),
            _profile("tables", _tables_run, top)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--top", type=int, default=20,
                        help="rows of each cumulative-time table "
                             "(default: 20)")
    options = parser.parse_args(argv)
    profile_run(options.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
