"""What starting a command imports: the package roots load lazily.

Each check runs in a fresh interpreter, since this test session has long
since imported everything, and compares module sets, never times.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
E2EBENCH = ROOT / "e2ebench"

#: The package roots that serve their exports from an ``_EXPORTS`` table.
LAZY_ROOTS = ("repro", "repro.core", "repro.sim", "repro.simdisk",
              "repro.simnet", "repro.prototype")

#: What the §5 figures never need.
NOT_ON_THE_FIGURE_PATH = (
    "repro.core", "repro.check", "repro.prototype", "repro.baselines",
    "repro.simdisk.filesystem", "repro.sim.parallel", "repro.sim.cache",
    "repro.sim.trace", "multiprocessing")


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""}, cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _repro_modules_after(statement: str) -> set[str]:
    return set(_fresh(
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] in\n"
        "                        ('repro', 'multiprocessing'))))"))


def test_import_repro_loads_only_the_root():
    assert _repro_modules_after("import repro") == {"repro"}


def test_cli_help_loads_only_the_cli():
    loaded = _repro_modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print()")
    assert loaded == {"repro", "repro.cli"}


def test_figure_import_loads_only_the_section_5_path():
    loaded = _repro_modules_after("from repro.sim import figure5_series")
    assert {"repro.sim.figures", "repro.sim.model", "repro.sim.sweep",
            "repro.simdisk.disk", "repro.simdisk.models",
            "repro.simnet.host", "repro.simnet.token_ring",
            "repro.des.engine"} <= loaded
    assert loaded.isdisjoint(NOT_ON_THE_FIGURE_PATH)


def test_every_export_resolves_and_is_listed():
    unresolved = _fresh(
        "import importlib, json\n"
        f"roots = {LAZY_ROOTS!r}\n"
        "problems = []\n"
        "for root in roots:\n"
        "    package = importlib.import_module(root)\n"
        "    listed = dir(package)\n"
        "    problems += [f'{root}.{name} not in dir()'\n"
        "                 for name in package.__all__ if name not in listed]\n"
        "    star = {}\n"
        "    exec(f'from {root} import *', star)\n"
        "    problems += [f'{root}.{name} missing from import *'\n"
        "                 for name in package.__all__ if name not in star]\n"
        "    problems += [f'{root}.{name} is not a plain global'\n"
        "                 for name in package.__all__\n"
        "                 if name not in vars(package)]\n"
        "print(json.dumps(problems))")
    assert unresolved == []


def test_unknown_attribute_still_raises():
    import repro.simnet
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.simnet.Nope


#: One small call of each e2ebench workload, through the callables its
#: ``import_program`` returned: a figure point, or one sample of each
#: table kind.
SMALL_RUNS = {
    "fig5_search": """
        program["artifact"](disk_counts=(4,), disk_names=("Fujitsu M2372K",),
                            num_requests=20, iterations=1, seed=0)
    """,
    "fig3_curve": """
        program["artifact"](rates=(10.0,), disk_counts=(8,),
                            block_sizes=(4096,), num_requests=20)
    """,
    "tables": """
        size = 64 << 10
        for second in (False, True):
            testbed = program["PrototypeTestbed"](second_ethernet=second,
                                                  seed=1)
            testbed.prepare_object("obj", size)
            testbed.measure_read("obj", size)
            testbed.measure_write("obj", size)
        for kind in ("LocalScsiBaseline", "NfsBaseline"):
            baseline = program[kind](seed=1)
            baseline.prepare_file("f", size)
            baseline.measure_read("f", size)
            baseline.measure_write("f", size)
        program["SampleSet"]([1.0, 2.0]).mean
    """,
}


@pytest.mark.parametrize("workload", sorted(SMALL_RUNS))
def test_nothing_imports_after_set_up(workload):
    # e2ebench times set-up (the imports of import_program) apart from the
    # run: a module the run imports would be charged to the wrong side.
    grew = _fresh(
        "import json, sys\n"
        f"sys.path.insert(0, {str(E2EBENCH)!r})\n"
        "import workloads\n"
        f"program = workloads.import_program({workload!r})\n"
        "before = set(sys.modules)\n"
        + textwrap.dedent(SMALL_RUNS[workload])
        + "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert grew == []
