"""The benchmark's workloads: grids, the calls into the program, output checks.

A workload turns a seed into the inputs of one artifact call (the grid),
runs it through the same public functions ``python -m repro`` calls, and
reduces every cell to its canonical result fields.  The checks hold each
cell to its EXPERIMENTS.md band and, at the default seed, to the hash
recorded in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
KB = 1 << 10
MB_DECIMAL = 1e6

#: Figure-cell fields hashed into each cell's digest (SimResult fields
#: plus the probed rate); fixed so that a new SimResult field does not
#: change every hash.
FIGURE_FIELDS = (
    "completed", "mean_completion_s", "stdev_completion_s",
    "max_completion_s", "duration_s", "mean_interarrival_s",
    "client_data_rate", "mean_disk_utilization", "ring_utilization",
    "p99_completion_s",
)

FIG5_ANCHOR_CELL = "Fujitsu M2372K@32"
FIG5_ANCHOR_BAND = (1.2 * MB_DECIMAL, 2.8 * MB_DECIMAL)
FIG5_PAPER_RATE = 2.0 * MB_DECIMAL
TABLE_BAND = 0.10

#: (artifact name, testbed kind, second Ethernet) per paper table.
TABLES = (
    ("table1", "swift", False),
    ("table2", "scsi", False),
    ("table3", "nfs", False),
    ("table4", "swift", True),
)


def load_json(name: str) -> dict:
    """A JSON file of the benchmark's directory."""
    return json.loads((HERE / name).read_text())


def digest(fields) -> str:
    """Short sha256 of a cell's canonical fields (floats by repr)."""
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def null_span(name, cell=None):
    """A span factory that records nothing (untraced runs)."""
    return contextlib.nullcontext()


# -- program entry points -----------------------------------------------------

def import_program(workload: str) -> dict:
    """Import what the workload's CLI command imports; return its callables."""
    import repro  # noqa: F401  (the package import every CLI call pays)
    if workload == "fig5_search":
        from repro.sim import figure5_series
        return {"artifact": figure5_series}
    if workload == "fig3_curve":
        from repro.sim import figure3_series
        return {"artifact": figure3_series}
    if workload == "tables":
        from repro.baselines import LocalScsiBaseline, NfsBaseline
        from repro.des import SampleSet
        from repro.prototype import (
            PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4,
            PrototypeTestbed,
        )
        return {
            "PrototypeTestbed": PrototypeTestbed,
            "LocalScsiBaseline": LocalScsiBaseline,
            "NfsBaseline": NfsBaseline,
            "SampleSet": SampleSet,
            "paper": {"table1": PAPER_TABLE1, "table2": PAPER_TABLE2,
                      "table3": PAPER_TABLE3, "table4": PAPER_TABLE4},
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_grid(contract: dict, workload: str, seed: int) -> dict:
    """The generated inputs of one artifact call at ``seed``."""
    grid = dict(contract["workloads"][workload]["grid"])
    if workload == "tables":
        grid["rows"] = [
            (table, op, size_mb,
             [100 + 1000 * seed + 17 * sample + size_mb
              for sample in range(grid["samples"])])
            for table, _, _ in TABLES
            for op in grid["operations"]
            for size_mb in grid["sizes_mb"]
        ]
    else:
        grid["seed"] = seed
    return grid


# -- running ------------------------------------------------------------------

def run(workload: str, program: dict, grid: dict, span=null_span) -> list:
    """Produce every cell of ``workload``: a list of cell dicts."""
    if workload == "fig5_search":
        points = program["artifact"](
            disk_counts=tuple(grid["disk_counts"]),
            disk_names=tuple(grid["disk_names"]),
            num_requests=grid["num_requests"],
            iterations=grid["iterations"],
            seed=grid["seed"])
        return [_figure_cell(f"{p.series}@{p.x:g}", p) for p in points]
    if workload == "fig3_curve":
        points = program["artifact"](
            rates=tuple(grid["rates"]),
            disk_counts=tuple(grid["disk_counts"]),
            block_sizes=tuple(kb * KB for kb in grid["block_sizes_kb"]),
            num_requests=grid["num_requests"],
            seed=grid["seed"])
        return [_figure_cell(f"{p.series}@{p.x:g}", p) for p in points]
    return _run_tables(program, grid, span)


def _figure_cell(cell_id: str, point) -> dict:
    result = point.result
    fields = {name: getattr(result, name) for name in FIGURE_FIELDS}
    fields["arrival_rate"] = result.config.arrival_rate
    return {"id": cell_id, "series": point.series, "x": point.x,
            "value": point.y, "hash": digest(fields)}


def _measure(program: dict, kind: str, second_ethernet: bool, op: str,
             size: int, seed: int) -> float:
    """One KB/s sample, exactly as repro.prototype.experiments takes it."""
    if kind == "swift":
        testbed = program["PrototypeTestbed"](second_ethernet=second_ethernet,
                                              seed=seed)
        if op == "Read":
            testbed.prepare_object("obj", size)
            return testbed.measure_read("obj", size)
        return testbed.measure_write("obj", size)
    baseline = program["LocalScsiBaseline" if kind == "scsi"
                       else "NfsBaseline"](seed=seed)
    if op == "Read":
        baseline.prepare_file("f", size)
        return baseline.measure_read("f", size)
    return baseline.measure_write("f", size)


def _run_tables(program: dict, grid: dict, span) -> list:
    kinds = {table: (kind, second) for table, kind, second in TABLES}
    cells = []
    for table, op, size_mb, seeds in grid["rows"]:
        label = f"{op} {size_mb} MB"
        cell_id = f"{table}:{label}"
        kind, second_ethernet = kinds[table]
        with span("table.row", cell_id):
            samples = [_measure(program, kind, second_ethernet, op,
                                size_mb << 20, seed) for seed in seeds]
        sample_set = program["SampleSet"](samples)
        mean = sample_set.mean
        cells.append({"id": cell_id, "series": table, "x": label,
                      "value": mean,
                      "paper": program["paper"][table][label],
                      "hash": digest({"samples": samples, "mean": mean})})
    return cells


# -- checks -------------------------------------------------------------------

def check(workload: str, cells: list, seed: int, contract: dict,
          golden: dict) -> dict:
    """Failure reasons per cell id (empty lists for passing cells)."""
    failures = {cell["id"]: [] for cell in cells}
    for cell in cells:
        value = cell["value"]
        if not (isinstance(value, float) and math.isfinite(value)
                and value > 0):
            failures[cell["id"]].append(f"value {value!r} not finite > 0")
    if workload == "fig5_search":
        _check_fig5(cells, failures)
    elif workload == "fig3_curve":
        _check_fig3(cells, failures)
    else:
        for cell in cells:
            ratio = cell["value"] / cell["paper"]
            if abs(ratio - 1.0) > TABLE_BAND:
                failures[cell["id"]].append(
                    f"{ratio:.3f}x paper, outside +-{TABLE_BAND:.0%}")
    if seed == contract["default_seed"]:
        recorded = golden.get(workload, {})
        for cell in cells:
            if recorded.get(cell["id"]) != cell["hash"]:
                failures[cell["id"]].append(
                    f"hash {cell['hash']} != recorded "
                    f"{recorded.get(cell['id'])}")
    return failures


def _check_fig5(cells: list, failures: dict) -> None:
    by_series: dict = {}
    for cell in cells:
        by_series.setdefault(cell["series"], []).append(cell)
    for series in by_series.values():
        series.sort(key=lambda cell: cell["x"])
        for lower, upper in zip(series, series[1:]):
            if upper["value"] < lower["value"]:
                failures[upper["id"]].append(
                    f"rate falls from {lower['x']:g} to {upper['x']:g} disks")
    anchor = [cell for cell in cells if cell["id"] == FIG5_ANCHOR_CELL]
    if not anchor:
        raise ValueError(f"grid lacks the anchor cell {FIG5_ANCHOR_CELL}")
    low, high = FIG5_ANCHOR_BAND
    if not low <= anchor[0]["value"] <= high:
        failures[FIG5_ANCHOR_CELL].append(
            f"{anchor[0]['value'] / MB_DECIMAL:.2f} MB/s outside "
            f"{low / MB_DECIMAL:.1f}-{high / MB_DECIMAL:.1f}")


def _fig3_key(cell: dict) -> tuple:
    """(unit KB, disks, rate) from a series named '<u>KB blocks, <d> disks'."""
    unit, disks = cell["series"].split(", ")
    return int(unit.split("KB")[0]), int(disks.split()[0]), cell["x"]


def _check_fig3(cells: list, failures: dict) -> None:
    """At one rate, more disks or a larger unit must complete faster."""
    keyed = [(_fig3_key(cell), cell) for cell in cells]
    for (unit, disks, rate), slow in keyed:
        for (other_unit, other_disks, other_rate), fast in keyed:
            if (other_rate == rate and other_unit >= unit
                    and other_disks >= disks
                    and (other_unit, other_disks) != (unit, disks)
                    and fast["value"] >= slow["value"]):
                failures[fast["id"]].append(f"not faster than {slow['id']}")


def paper_rel_err(workload: str, cells: list):
    """(mean |measured/paper - 1|, cells compared), or None without any."""
    if workload == "fig5_search":
        pairs = [(cell["value"], FIG5_PAPER_RATE) for cell in cells
                 if cell["id"] == FIG5_ANCHOR_CELL]
    elif workload == "tables":
        pairs = [(cell["value"], cell["paper"]) for cell in cells]
    else:
        return None
    errors = [abs(measured / paper - 1.0) for measured, paper in pairs]
    return sum(errors) / len(errors), len(errors)
