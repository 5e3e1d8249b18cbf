"""Cell-interleaved A/B timing of two source trees on an e2ebench grid.

::

    python benchmarks/ab_cells.py PARENT_SRC CHANGE_SRC fig3|fig5|tables|kernel
        [--rounds N] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are checkouts (or their ``src``
directories) of the two versions to compare.  One long-lived worker
interpreter runs per tree, importing ``repro`` from that tree only.  Both
workers run each cell of the e2ebench grid (``fig3_curve``: one load
point; ``fig5_search``: one disk model and count; ``tables``: one table
row, its 8 samples taken as the e2ebench workload takes them, with the
row's e2ebench hash as its digest) back to back, and
which tree goes first alternates from cell to cell, so both sides of a
cell run in the same spell of host throughput.  On a shared 2-vCPU host
whole-grid fresh-interpreter pairs swing by about +-20 %, because
throughput alternates between fast and slow spells lasting seconds;
interleaving by cell cancels most of that.

The ``kernel`` workload has no e2ebench grid: each of its 20 cells is one
run of the ``bench_kernel_events`` ping-pong (8 processes x 500 holds of
a capacity-2 resource), and its digest is the run's event count (12,016),
so ``--rounds 10`` gives 200 alternating paired runs of the kernel alone.

Per round it prints the change/parent ratio of the summed cell seconds
and how many cells' result digests (the e2ebench cell hash) differ
between the trees, next to each tree's kernel ping-pong events/s
measured in the same workers (8 processes x 500 holds of a capacity-2
resource, best of 3).  At the end it prints the cells whose ratio of
per-tree median seconds (over the rounds) moved furthest from 1, so a
claim can say which cells moved.  The record, with provenance and every
cell's per-tree median seconds (``per_cell``), is archived as
``benchmarks/results/BENCH_ab_<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _common import archive_json

HERE = Path(__file__).resolve().parent
E2EBENCH = HERE.parent / "e2ebench"
WORKLOADS = {"fig3": "fig3_curve", "fig5": "fig5_search",
             "tables": "tables", "kernel": "kernel"}
#: Ping-pong runs per round of the ``kernel`` workload.
KERNEL_CELLS = 20
KB = 1 << 10
#: How long a worker may take to exit once its stdin closes.
CLOSE_TIMEOUT_S = 60.0
#: How many of the cells that moved most the summary prints.
MOVED_SHOWN = 6


def _src_dir(path: str) -> Path:
    """The directory holding ``repro`` for a checkout or its ``src``."""
    root = Path(path).resolve()
    for candidate in (root / "src", root):
        if (candidate / "repro" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"{path}: no repro package under it or its src/")


def grid_cells(workload: str, seed: int) -> list:
    """The e2ebench grid of ``workload`` split into one-call cells."""
    if workload == "kernel":
        return [{"run": index} for index in range(KERNEL_CELLS)]
    sys.path.insert(0, str(E2EBENCH))
    import workloads

    contract = workloads.load_json("contract.json")
    if workload == "tables":
        return [{"table": table, "op": op, "size_mb": size_mb,
                 "seeds": seeds}
                for table, op, size_mb, seeds
                in workloads.make_grid(contract, workload, seed)["rows"]]
    grid = contract["workloads"][workload]["grid"]
    if workload == "fig5_search":
        return [{"disk_names": [name], "disk_counts": [disks],
                 "num_requests": grid["num_requests"],
                 "iterations": grid["iterations"], "seed": seed}
                for name in grid["disk_names"]
                for disks in grid["disk_counts"]]
    return [{"rates": [rate], "disk_counts": [disks],
             "block_sizes": [kb * KB], "num_requests": grid["num_requests"],
             "seed": seed}
            for kb in grid["block_sizes_kb"]
            for disks in grid["disk_counts"]
            for rate in grid["rates"]]


def cell_label(cell: dict) -> str:
    """A short name for one cell of :func:`grid_cells`."""
    if "table" in cell:
        return f"{cell['table']} {cell['op']} {cell['size_mb']} MB"
    if "run" in cell:
        return f"run {cell['run']}"
    if "rates" in cell:
        return (f"{cell['block_sizes'][0] // KB} KB x "
                f"{cell['disk_counts'][0]} disks @ {cell['rates'][0]:g}/s")
    return f"{cell['disk_names'][0]} x {cell['disk_counts'][0]}"


# -- the worker: one interpreter per source tree ------------------------------

def _pingpong_run() -> tuple[float, int]:
    """One timed run of bench_kernel_events' ping-pong: (seconds, events)."""
    from repro.des import Environment, Resource

    def worker(env, resource):
        for _ in range(500):
            with resource.request() as request:
                yield request
                yield env.timeout(0.001)

    env = Environment()
    resource = Resource(env, capacity=2)
    for _ in range(8):
        env.process(worker(env, resource))
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, env._eid


def _pingpong_events_per_s(repeats: int = 3) -> float:
    """Kernel throughput of this tree: the best of ``repeats`` runs."""
    runs = [_pingpong_run() for _ in range(repeats)]
    return runs[0][1] / min(seconds for seconds, _ in runs)


def _run_cell(workload: str, cell: dict) -> dict:
    gc.collect()
    if workload == "kernel":
        seconds, events = _pingpong_run()
        return {"seconds": seconds, "digest": events}

    import workloads

    if workload == "tables":
        return _run_table_row(workloads, cell)

    from repro.sim import figure3_series, figure5_series

    kwargs = {key: tuple(value) if isinstance(value, list) else value
              for key, value in cell.items()}
    artifact = (figure5_series if workload == "fig5_search"
                else figure3_series)
    start = time.perf_counter()
    (point,) = artifact(**kwargs)
    seconds = time.perf_counter() - start
    result = point.result
    fields = {name: getattr(result, name)
              for name in workloads.FIGURE_FIELDS}
    fields["arrival_rate"] = result.config.arrival_rate
    return {"seconds": seconds, "digest": workloads.digest(fields)}


def _run_table_row(workloads, cell: dict) -> dict:
    """One e2ebench ``tables`` row: its samples, timed, and its hash."""
    program = workloads.import_program("tables")
    kind, second_ethernet = {table: (kind, second) for table, kind, second
                             in workloads.TABLES}[cell["table"]]
    start = time.perf_counter()
    samples = [workloads._measure(program, kind, second_ethernet, cell["op"],
                                  cell["size_mb"] << 20, seed)
               for seed in cell["seeds"]]
    seconds = time.perf_counter() - start
    mean = program["SampleSet"](samples).mean
    return {"seconds": seconds,
            "digest": workloads.digest({"samples": samples, "mean": mean})}


def serve() -> int:
    """Answer one JSON request per stdin line until stdin closes."""
    sys.path.insert(0, str(E2EBENCH))
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "pingpong":
            reply = {"events_per_s": _pingpong_events_per_s()}
        else:
            reply = _run_cell(request["workload"], request["cell"])
        print(json.dumps(reply), flush=True)
    return 0


class Worker:
    """A worker interpreter whose ``repro`` comes from one tree."""

    def __init__(self, src: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(HERE))

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- the driver ---------------------------------------------------------------

def run_round(workers: dict, workload: str, cells: list,
              round_index: int) -> dict:
    """Every cell on both trees, the first tree alternating per cell.

    ``cell_s`` holds each cell's ``[parent, change]`` seconds.
    """
    names = ("parent", "change")
    seconds = {name: 0.0 for name in names}
    cell_s = []
    # The ping-pong order alternates per round.
    kernel = {name: workers[name].ask(op="pingpong")["events_per_s"]
              for name in (names if round_index % 2 == 0 else names[::-1])}
    mismatches = 0
    for index, cell in enumerate(cells):
        order = names if (index + round_index) % 2 == 0 else names[::-1]
        replies = {name: workers[name].ask(op="cell", workload=workload,
                                           cell=cell)
                   for name in order}
        for name in names:
            seconds[name] += replies[name]["seconds"]
        cell_s.append([replies[name]["seconds"] for name in names])
        mismatches += replies["parent"]["digest"] != \
            replies["change"]["digest"]
    return {"parent_s": seconds["parent"], "change_s": seconds["change"],
            "ratio": seconds["change"] / seconds["parent"],
            "mismatches": mismatches,
            "parent_kernel_events_per_s": kernel["parent"],
            "change_kernel_events_per_s": kernel["change"],
            "cell_s": cell_s}


def per_cell_medians(cells: list, rounds: list) -> list:
    """Each cell's median seconds per tree over the rounds, and their
    change/parent ratio."""
    summary = []
    for index, cell in enumerate(cells):
        parent = statistics.median(r["cell_s"][index][0] for r in rounds)
        change = statistics.median(r["cell_s"][index][1] for r in rounds)
        summary.append({"cell": cell_label(cell), "parent_median_s": parent,
                        "change_median_s": change,
                        "ratio": change / parent})
    return summary


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--serve"]:
        return serve()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    workload = WORKLOADS[args.workload]
    cells = grid_cells(workload, args.seed)
    workers = {"parent": Worker(_src_dir(args.parent_src)),
               "change": Worker(_src_dir(args.change_src))}
    rounds = []
    try:
        for round_index in range(args.rounds):
            record = run_round(workers, workload, cells, round_index)
            rounds.append(record)
            print(f"round {round_index + 1}: parent "
                  f"{record['parent_s']:.2f} s, change "
                  f"{record['change_s']:.2f} s, ratio "
                  f"{record['ratio']:.3f}, mismatches "
                  f"{record['mismatches']}; kernel ping-pong "
                  f"{record['parent_kernel_events_per_s'] / 1e6:.3f} / "
                  f"{record['change_kernel_events_per_s'] / 1e6:.3f} "
                  "M events/s", flush=True)
    finally:
        for worker in workers.values():
            worker.close()
    ratios = [record["ratio"] for record in rounds]
    print(f"{workload}: {len(cells)} cells x {len(rounds)} rounds, ratio "
          f"median {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f}), mismatches "
          f"{sum(record['mismatches'] for record in rounds)}")
    per_cell = per_cell_medians(cells, rounds)
    print("cells that moved most (ratio of per-tree median seconds):")
    for entry in sorted(per_cell,
                        key=lambda entry: -abs(math.log(entry["ratio"])))[
                            :MOVED_SHOWN]:
        print(f"  {entry['cell']}: parent {entry['parent_median_s']:.3f} s, "
              f"change {entry['change_median_s']:.3f} s, ratio "
              f"{entry['ratio']:.3f}")
    for record in rounds:
        del record["cell_s"]
    path = archive_json(f"BENCH_ab_{workload}", {
        "workload": workload, "seed": args.seed, "cells": len(cells),
        "rounds": rounds, "ratio_median": statistics.median(ratios),
        "per_cell": per_cell,
    })
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
