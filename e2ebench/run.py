"""End-to-end benchmark of what users run: Figure 5 search, Figure 3 load
curve and Tables 1-4, decomposed by layer.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fig5_search|fig3_curve|tables \\
        --seed N --seconds S --trace 0|1

Every run of the program is a fresh interpreter in an empty working
directory under ``.e2ebench_work/`` (HOME, XDG_CACHE_HOME and TMPDIR
inside it), after one untimed import has warmed the bytecode cache.

``--trace 0`` times the workload: ``wall_s`` (median over as many whole
runs as fit in ``--seconds``, at least one), ``setup_s`` (median over
those runs and a few set-up-only interpreters) and ``peak_rss_mb``.
``--trace 1`` runs the workload once plain, once traced and once under
cProfile, and reports the per-layer metrics of ``contract.json``.
Either way every cell is checked (``workloads.check``), the text report
lists each cell with its hash, and the last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` cells, ``metrics``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"

#: Set-up-only interpreters before and again after the timed runs (on top
#: of one per timed run), so the median spans more than one of the
#: host's fast or slow spells, which last seconds.
SETUP_SAMPLES = 5
#: Every invocation ends within this many seconds or fails.
DEADLINE_S = 170.0
RSS_SAMPLE_S = 0.2


class BenchmarkError(RuntimeError):
    """A child failed or ran out of time."""


class Runner:
    """Starts the child interpreters of one invocation."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = WORK / str(os.getpid())
        self._numbers = itertools.count(1)  # atomic next(): threads spawn

    def spawn(self, mode: str, trace_dir: Path | None = None) -> dict:
        """Run child.py once; its record plus setup_s and peak_rss_mb."""
        cwd = self.work / f"{next(self._numbers):03d}-{mode}"
        for sub in ("home", "cache", "tmp"):
            (cwd / sub).mkdir(parents=True)
        env = dict(os.environ)
        paths = [str(SRC)]
        if trace_dir is not None:
            paths += [str(HERE), str(HERE / "tracesite")]
            env["E2EBENCH_TRACE_DIR"] = str(trace_dir)
        env.update(PYTHONPATH=os.pathsep.join(paths), HOME=str(cwd / "home"),
                   XDG_CACHE_HOME=str(cwd / "cache"), TMPDIR=str(cwd / "tmp"))
        out = cwd / "result.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a child")
        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), self.workload,
             str(self.seed), mode, str(out)],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        peak = [0]
        stop = threading.Event()
        sampler = threading.Thread(target=_sample_group_rss,
                                   args=(child.pid, stop, peak))
        sampler.start()
        try:
            _, stderr = child.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            _kill_group(child.pid)
            child.communicate()
            raise BenchmarkError(f"{mode} child timed out")
        finally:
            stop.set()
            sampler.join()
            _kill_group(child.pid)
        if child.returncode != 0:
            raise BenchmarkError(
                f"{mode} child exited {child.returncode}:\n"
                f"{stderr.decode(errors='replace')}")
        record = json.loads(out.read_text())
        record["setup_s"] = record["setup_end"] - started
        if "self_peak_rss_mb" in record:
            record["peak_rss_mb"] = max(record["self_peak_rss_mb"],
                                        peak[0] / (1 << 20))
        return record


def remove_work(path: Path) -> None:
    """Delete one invocation's scratch tree, and WORK once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another invocation still uses it, or it never existed


def _kill_group(pgid: int) -> None:
    """Stop whatever the child left in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sample_group_rss(pgid: int, stop: threading.Event, peak: list) -> None:
    """Keep ``peak[0]`` at the largest summed RSS (bytes) of the group."""
    page = os.sysconf("SC_PAGE_SIZE")
    while not stop.wait(RSS_SAMPLE_S):
        total = 0
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid:
                total += int(fields[21]) * page
        peak[0] = max(peak[0], total)


def _check_cells(workloads, contract, golden, workload, seed, records):
    """Check every record's cells; later records must match the first."""
    reference = {cell["id"]: cell["hash"] for cell in records[0]["cells"]}
    attempted = failed = 0
    failures = {}
    for record in records:
        found = workloads.check(workload, record["cells"], seed, contract,
                                golden)
        for cell in record["cells"]:
            if reference.get(cell["id"]) != cell["hash"]:
                found[cell["id"]].append("differs from the first run")
        attempted += len(found)
        failed += sum(1 for reasons in found.values() if reasons)
        for cell_id, reasons in found.items():
            failures.setdefault(cell_id, set()).update(reasons)
    return attempted, failed, failures


def _report_cells(workloads, workload, cells, failures) -> None:
    for cell in cells:
        reasons = sorted(failures.get(cell["id"], ()))
        verdict = "ok" if not reasons else "FAIL " + "; ".join(reasons)
        print(f"  cell {cell['id']:<28} value={cell['value']:.6g} "
              f"hash={cell['hash']}  {verdict}")
    print(f"  workload_hash = "
          f"{workloads.digest([cell['hash'] for cell in cells])}")
    error = workloads.paper_rel_err(workload, cells)
    if error is None:
        print("  paper_rel_err = n/a (no published values for this grid)")
    else:
        print(f"  paper_rel_err = {error[0]:.6f} ratio "
              f"(over {error[1]} published cells)")


def _timed(runner: Runner, seconds: float):
    """Setup samples, then whole timed runs while they fit in seconds."""
    runner.spawn("setup")  # untimed: warms the bytecode cache
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    records = []
    begun = time.monotonic()
    while True:
        records.append(runner.spawn("plain"))
        typical = statistics.median(r["wall_s"] for r in records)
        if time.monotonic() - begun + typical > seconds:
            break
    setups += [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    setups += [record["setup_s"] for record in records]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s",
                   f"median of {len(records)} runs"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} interpreters"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records),
                        "MiB", "process tree"),
    }
    return records, metrics


def _traced(runner: Runner, contract: dict):
    """One plain, one traced and one profiled run; per-layer metrics.

    The profiled run (several times the plain one) occupies the second
    CPU while the plain and then the traced run take the first, so both
    of those share a neighbour and their ratio, the trace's overhead,
    stays fair.
    """
    import analysis
    import tracer

    runner.spawn("setup")  # untimed: warms the bytecode cache
    trace_dir = runner.work / "trace"
    trace_dir.mkdir()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        profiling = pool.submit(runner.spawn, "profile")
        try:
            plain = runner.spawn("plain")
            traced = runner.spawn("trace", trace_dir)
        finally:
            profiled = profiling.result()
    values = analysis.layer_metrics(
        tracer.read_spans(str(trace_dir)), profiled["profile"],
        len(traced["cells"]), plain["wall_s"], traced["wall_s"])
    metrics = {}
    for layer in contract["layers"]:
        for metric in layer["metrics"]:
            value, note = values[metric["name"]]
            metrics[metric["name"]] = (value, metric["unit"], note)
    return [plain, traced, profiled], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to run under {SRC}", file=sys.stderr)
        return 2
    import workloads

    contract = workloads.load_json("contract.json")
    if args.workload not in contract["workloads"]:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(contract['workloads'])}", file=sys.stderr)
        return 2
    golden = workloads.load_json("golden.json")
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            records, metrics = _traced(runner, contract)
        else:
            records, metrics = _timed(runner, args.seconds)
    except BenchmarkError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        remove_work(runner.work)

    attempted, failed, failures = _check_cells(
        workloads, contract, golden, args.workload, args.seed, records)
    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    _report_cells(workloads, args.workload, records[0]["cells"], failures)
    print(f"  cells = {len(records[0]['cells'])} count; "
          f"cells_failed = {failed} of {attempted} checked")
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"{name} = {shown}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0 if value is None else value,
                           "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
