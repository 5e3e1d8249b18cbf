"""Record the default-seed cell hashes, or compare cells with the CLI.

    python3 e2ebench/reference.py record   # rewrite golden.json
    python3 e2ebench/reference.py cli      # each cell == python -m repro's

``record`` runs every workload once at the default seed and stores each
cell's hash in ``golden.json``; ``run.py`` fails any default-seed cell
whose hash differs.  ``cli`` runs ``python -m repro fig5``, ``fig3`` and
``table1``..``table4`` with ``--csv`` (about 3 minutes on 2 CPUs) and
checks that every benchmark cell has the CLI's value at the CLI's
printed precision.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time

import workloads
from run import HERE, SRC, WORK, Runner, remove_work

CLI_COMMANDS = {"fig5_search": ("fig5",), "fig3_curve": ("fig3",),
                "tables": ("table1", "table2", "table3", "table4")}
#: Generous: these runs are not timed.
DEADLINE_S = 900.0


def _cells(workload: str, seed: int) -> list:
    runner = Runner(workload, seed, time.monotonic() + DEADLINE_S)
    try:
        return runner.spawn("plain")["cells"]
    finally:
        remove_work(runner.work)


def record(contract: dict) -> int:
    golden = {workload: {cell["id"]: cell["hash"]
                         for cell in _cells(workload,
                                            contract["default_seed"])}
              for workload in contract["workloads"]}
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"golden.json: {sum(map(len, golden.values()))} cells")
    return 0


def _cli_values(command: str, scratch) -> dict:
    """Cell id -> value string as the CLI's CSV prints it."""
    path = scratch / f"{command}.csv"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", command, "--csv",
                    str(path)], cwd=scratch, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=DEADLINE_S)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if command.startswith("table"):
        return {f"{command}:{row['operation']}": row["mean"] for row in rows}
    return {f"{row['series']}@{float(row['x']):g}": row["y"] for row in rows}


def cli(contract: dict) -> int:
    scratch = WORK / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True)
    mismatched = 0
    try:
        for workload, commands in CLI_COMMANDS.items():
            printed = {}
            for command in commands:
                printed.update(_cli_values(command, scratch))
            cells = _cells(workload, contract["default_seed"])
            digits = 2 if workload == "tables" else 4
            bad = [cell["id"] for cell in cells
                   if printed.get(cell["id"]) != f"{cell['value']:.{digits}f}"]
            mismatched += len(bad)
            print(f"{workload}: {len(cells) - len(bad)} of {len(cells)} "
                  f"cells equal the CLI's" + (f"; differ: {bad}" if bad
                                              else ""))
    finally:
        remove_work(scratch)
    return 1 if mismatched else 0


def main(argv) -> int:
    if len(argv) != 2 or argv[1] not in ("record", "cli"):
        print(__doc__, file=sys.stderr)
        return 2
    contract = workloads.load_json("contract.json")
    return record(contract) if argv[1] == "record" else cli(contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
