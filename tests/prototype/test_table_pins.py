"""Reduced Tables 1–4, pinned byte for byte.

``fixtures/table_reprs.json`` holds the ``repr`` of every sample of
each table at 1 and 2 MB with two samples per row, plus the segment
utilizations after one 1 MB read and write on the Table 4 and Table 3
testbeds.  The departmental segment of both carries the background
load, so its utilization pins the folded bursts' busy and idle marks.
A change to the prototype network, the protocol, the file systems or
the disks that moves any table value fails here.
"""

import json
from pathlib import Path

from repro.baselines import NfsBaseline
from repro.prototype import (
    PrototypeTestbed,
    run_nfs_table,
    run_scsi_table,
    run_swift_table,
)

MB = 1 << 20

#: Recorded before the prototype network's CPUs and cables became
#: analytic servers.
PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "table_reprs.json").read_text())

SMALL = {"sizes_mb": (1, 2), "samples": 2}


def sample_reprs(rows) -> dict:
    return {label: repr(samples.samples) for label, samples in rows.items()}


def test_table1_is_pinned():
    assert sample_reprs(run_swift_table(**SMALL)) == PINNED["table1"]


def test_table2_is_pinned():
    assert sample_reprs(run_scsi_table(**SMALL)) == PINNED["table2"]


def test_table3_is_pinned():
    assert sample_reprs(run_nfs_table(**SMALL)) == PINNED["table3"]


def test_table4_is_pinned():
    rows = run_swift_table(second_ethernet=True, **SMALL)
    assert sample_reprs(rows) == PINNED["table4"]


def test_segment_utilizations_are_pinned():
    pinned = PINNED["utilization"]
    testbed = PrototypeTestbed(seed=3, second_ethernet=True)
    testbed.prepare_object("obj", MB)
    testbed.measure_read("obj", MB)
    testbed.measure_write("obj", MB)
    assert repr(testbed.network_utilization("laboratory")) \
        == pinned["table4_laboratory"]
    assert repr(testbed.network_utilization("departmental")) \
        == pinned["table4_departmental"]
    baseline = NfsBaseline(seed=3)
    baseline.prepare_file("f", MB)
    baseline.measure_read("f", MB)
    baseline.measure_write("g", MB)
    assert repr(baseline.network.medium("departmental").utilization()) \
        == pinned["table3_departmental"]
