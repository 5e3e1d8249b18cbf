"""Start-up: what a fresh interpreter pays before a command does any work.

Not a paper result — this times the stage every command pays first.
Each case is a fresh interpreter with this checkout's ``src`` on
``PYTHONPATH``:

* ``bare_interpreter``: ``python -c pass``, the floor under every case;
* ``help``: ``python -m repro --help``;
* ``import_repro``: ``python -c "import repro"``;
* ``fig5_search``, ``fig3_curve``, ``tables``: the imports of e2ebench's
  ``import_program`` for that workload, i.e. its ``setup_s`` minus the
  harness's own imports.

One untimed run of each case warms the bytecode cache; then every round
runs each case once, in turn, and the archived seconds per case are the
median and minimum over the rounds of the whole process (spawn to exit).
One more run per case lists the ``repro`` modules in ``sys.modules`` at
exit (``-X importtime`` would miss the ones a package root loads through
``importlib.import_module``): the counts are deterministic, the seconds
are this host's.  Archived as ``BENCH_startup.json``.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _common import archive_json, scaled

ROOT = Path(__file__).resolve().parent.parent
E2EBENCH = ROOT / "e2ebench"


def _import_program(workload: str) -> list[str]:
    return ["-c", f"import sys; sys.path.insert(0, {str(E2EBENCH)!r}); "
                  f"import workloads; workloads.import_program({workload!r})"]


#: case -> the interpreter's arguments.
CASES = {
    "bare_interpreter": ["-c", "pass"],
    "help": ["-m", "repro", "--help"],
    "import_repro": ["-c", "import repro"],
    "fig5_search": _import_program("fig5_search"),
    "fig3_curve": _import_program("fig3_curve"),
    "tables": _import_program("tables"),
}


def _run(arguments: list[str], *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *flags, *arguments], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          check=True)


def _timed(arguments: list[str]) -> float:
    start = time.perf_counter()
    _run(arguments)
    return time.perf_counter() - start


#: Prints the loaded ``repro`` modules to stderr as the interpreter exits.
_LIST_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(\n"
    "    name for name in sys.modules\n"
    "    if name == 'repro' or name.startswith('repro.'))), file=sys.stderr))\n")


def repro_modules(arguments: list[str]) -> list[str]:
    """The ``repro`` modules a case has loaded when it exits."""
    if arguments[0] == "-m":
        module, *rest = arguments[1:]
        body = (f"import runpy\nsys.argv = [{module!r}, *{rest!r}]\n"
                f"runpy.run_module({module!r}, run_name='__main__', "
                "alter_sys=True)\n")
    else:
        body = arguments[1]
    stderr = _run(["-c", _LIST_AT_EXIT + body]).stderr
    return json.loads(stderr.splitlines()[-1])


def bench_startup(benchmark):
    benchmark(_run, CASES["help"])
    rounds = scaled(20, 5)
    for arguments in CASES.values():
        _run(arguments)  # untimed: warms the bytecode cache
    seconds = {case: [] for case in CASES}
    for _ in range(rounds):
        for case, arguments in CASES.items():
            seconds[case].append(_timed(arguments))
    cases = {}
    for case, arguments in CASES.items():
        modules = repro_modules(arguments)
        cases[case] = {
            "arguments": arguments,
            "median_s": statistics.median(seconds[case]),
            "min_s": min(seconds[case]),
            "runs_s": seconds[case],
            "repro_modules": len(modules),
            "modules": modules,
        }
    assert cases["import_repro"]["modules"] == ["repro"]
    path = archive_json("BENCH_startup", {"rounds": rounds, "cases": cases})
    print()
    for case, record in cases.items():
        print(f"{case:<17} {record['median_s'] * 1e3:7.1f} ms median "
              f"({record['min_s'] * 1e3:.1f} min), "
              f"{record['repro_modules']} repro modules")
    print(f"-> {path}")
