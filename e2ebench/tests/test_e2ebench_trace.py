"""Spans and counters reach the trace from pool workers, forked or spawned,
and tracing leaves every result unchanged."""

import json
import os
import subprocess
import sys

import pytest

import analysis
import tracer
from conftest import BENCH

SRC = BENCH.parent / "src"

#: A small Figure 5 grid: two cells of four-iteration searches.
SCRIPT = """
import json, sys
import repro.sim.parallel as parallel
from repro.sim import figure5_series

workers, method = int(sys.argv[1]), sys.argv[2]
if method == "spawn":
    import multiprocessing
    parallel._pool_context = lambda: multiprocessing.get_context("spawn")
points = figure5_series(disk_counts=(2, 4), disk_names=("Fujitsu M2372K",),
                        num_requests=40, iterations=4, workers=workers)
print(json.dumps([point.y for point in points]))
"""


def _run(tmp_path, workers, method, traced=True):
    trace_dir = tmp_path / f"trace-{workers}-{method}-{traced}"
    trace_dir.mkdir()
    env = dict(os.environ)
    paths = [str(SRC)]
    if traced:
        paths += [str(BENCH), str(BENCH / "tracesite")]
        env[tracer.ENV_VAR] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(workers),
                           method], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout), tracer.read_spans(str(trace_dir))


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_spans_reach_the_trace(tmp_path, method):
    plain, _ = _run(tmp_path, 1, method, traced=False)
    serial, serial_spans = _run(tmp_path, 1, method)
    fanned, fanned_spans = _run(tmp_path, 2, method)
    assert plain == serial == fanned

    def runs(spans):
        return [span for span in spans if span["name"] == "model.run"]

    parent = {span["pid"] for span in fanned_spans
              if span["name"] == "sweep.search"}
    assert len(parent) == 2, "each search ran in its own worker"
    assert len(runs(fanned_spans)) == len(runs(serial_spans)) > 0
    assert {span["pid"] for span in runs(fanned_spans)} == parent
    serial_events = sum(span["counts"].get("events", 0)
                        for span in serial_spans)
    fanned_events = sum(span["counts"].get("events", 0)
                        for span in fanned_spans)
    assert serial_events == fanned_events > 0
    assert sorted(map(len, analysis.search_probes(fanned_spans))) == \
        sorted(map(len, analysis.search_probes(serial_spans)))
