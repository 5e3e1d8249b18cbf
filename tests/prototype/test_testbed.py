"""Prototype testbed: Table 1/4 bands, scaling, utilization claims."""

import gc
import weakref

import pytest

from repro.baselines import LocalScsiBaseline, NfsBaseline
from repro.prototype import PrototypeTestbed
from repro.prototype.calibration import ETHERNET_MEASURED_CAPACITY

MB = 1 << 20


def test_single_ethernet_read_band():
    testbed = PrototypeTestbed(seed=11)
    testbed.prepare_object("obj", 3 * MB)
    rate = testbed.measure_read("obj", 3 * MB)
    assert 840 <= rate <= 930  # paper Table 1: 876-897


def test_single_ethernet_write_band():
    testbed = PrototypeTestbed(seed=11)
    rate = testbed.measure_write("obj", 3 * MB)
    assert 840 <= rate <= 920  # paper Table 1: 860-882


def test_network_is_the_bottleneck():
    # §4: "the utilization of the network ranged from 77% to 80% of its
    # measured maximum capacity of 1.12 megabytes/second."
    testbed = PrototypeTestbed(seed=11)
    testbed.prepare_object("obj", 3 * MB)
    rate_kb_s = testbed.measure_read("obj", 3 * MB)
    fraction = rate_kb_s * 1024 / ETHERNET_MEASURED_CAPACITY
    assert 0.70 <= fraction <= 0.85


def test_two_ethernets_double_writes():
    single = PrototypeTestbed(seed=11)
    w1 = single.measure_write("obj", 3 * MB)
    dual = PrototypeTestbed(seed=11, second_ethernet=True)
    w2 = dual.measure_write("obj", 3 * MB)
    assert w2 == pytest.approx(2 * w1, rel=0.10)  # "almost doubled"


def test_two_ethernets_reads_improve_modestly():
    single = PrototypeTestbed(seed=11)
    single.prepare_object("obj", 3 * MB)
    r1 = single.measure_read("obj", 3 * MB)
    dual = PrototypeTestbed(seed=11, second_ethernet=True)
    dual.prepare_object("obj", 3 * MB)
    r2 = dual.measure_read("obj", 3 * MB)
    improvement = r2 / r1 - 1.0
    # §7: "For read, the improvements were only on the order of 25%."
    assert 0.15 <= improvement <= 0.45


def test_swift_beats_local_scsi_by_three_for_writes():
    from repro.baselines import LocalScsiBaseline
    swift = PrototypeTestbed(seed=11)
    swift_rate = swift.measure_write("obj", 3 * MB)
    scsi = LocalScsiBaseline(seed=11)
    scsi_rate = scsi.measure_write("f", 3 * MB)
    # §4: "between a 274% and a 280% increase over the local SCSI disk."
    assert 2.5 <= swift_rate / scsi_rate <= 3.0


def test_swift_beats_nfs_by_eight_for_writes():
    from repro.baselines import NfsBaseline
    swift = PrototypeTestbed(seed=11)
    swift_rate = swift.measure_write("obj", 3 * MB)
    nfs = NfsBaseline(seed=11)
    nfs_rate = nfs.measure_write("f", 3 * MB)
    # §4: "between 767% and 809% better" (i.e. ~8x).
    assert 7.0 <= swift_rate / nfs_rate <= 9.0


def test_swift_beats_nfs_by_two_for_reads():
    from repro.baselines import NfsBaseline
    swift = PrototypeTestbed(seed=11)
    swift.prepare_object("obj", 3 * MB)
    swift_rate = swift.measure_read("obj", 3 * MB)
    nfs = NfsBaseline(seed=11)
    nfs.prepare_file("f", 3 * MB)
    nfs_rate = nfs.measure_read("f", 3 * MB)
    # §4: "between 180% and 197%" (i.e. nearly double).
    assert 1.6 <= swift_rate / nfs_rate <= 2.2


def test_data_integrity_through_the_timed_stack():
    # The measured transfers move real bytes: verify a read-back matches.
    testbed = PrototypeTestbed(seed=11)
    engine = testbed._make_engine("obj")
    payload = bytes((i * 251) % 256 for i in range(300_000))

    def workload():
        yield from engine.open(create=True)
        yield from engine.write(0, payload)
        data = yield from engine.read(0, len(payload))
        assert data == payload
        yield from engine.close()

    testbed._run(workload())


def test_agent_count_scaling_until_saturation():
    # §1: "data-rates scale almost linearly in the number of servers" —
    # until the single Ethernet saturates (adding a 4th agent "would only
    # saturate the network", §4).
    rates = {}
    for agents in [1, 2, 3]:
        testbed = PrototypeTestbed(agents_per_segment=agents, seed=11)
        testbed.prepare_object("obj", 3 * MB)
        rates[agents] = testbed.measure_read("obj", 3 * MB)
    # Sub-linear factors reflect shared-cable queueing; the aggregate
    # still grows strongly with each added server.
    assert rates[2] > rates[1] * 1.4
    assert rates[3] > rates[2] * 1.15


def test_validation():
    with pytest.raises(ValueError):
        PrototypeTestbed(agents_per_segment=0)


def test_dropping_the_testbed_frees_the_stored_object_without_the_collector():
    # The agents' server loops never finish, a reference cycle through
    # each agent and its file system; dropping the testbed ends them, so
    # the stored stripes go at once instead of at a full collection.
    testbed = PrototypeTestbed(seed=11)
    testbed.prepare_object("obj", MB)
    testbed.measure_read("obj", MB)
    filesystem = weakref.ref(testbed.agents["slc0"].filesystem)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del testbed
        assert filesystem() is None
    finally:
        if enabled:
            gc.enable()


#: Seed-3 testbeds a monitor must not move: Tables 1-4 (the local SCSI
#: disk and NFS are Tables 2 and 3), plus parity and synchronous agent
#: writes.
MONITORED_BEDS = {
    "table1": lambda: PrototypeTestbed(seed=3),
    "table2": lambda: LocalScsiBaseline(seed=3),
    "table3": lambda: NfsBaseline(seed=3),
    "table4": lambda: PrototypeTestbed(seed=3, second_ethernet=True),
    "parity": lambda: PrototypeTestbed(seed=3, parity=True),
    "sync-writes": lambda: PrototypeTestbed(
        seed=3, synchronous_agent_writes=True),
}


def _rates_and_clock(make_bed, monitored):
    bed = make_bed()
    if monitored:
        bed.env.observe("step", lambda when, event: None)
    prepare = getattr(bed, "prepare_object", None) or bed.prepare_file
    prepare("r", MB)
    return bed.measure_read("r", MB), bed.measure_write("w", MB), bed.env.now


@pytest.mark.parametrize("bed", list(MONITORED_BEDS))
def test_a_monitor_changes_no_prototype_result(bed):
    # Unmonitored, a finished process nobody waits on and a socket get
    # satisfied at once take no calendar entry; a step monitor turns
    # both fast paths off.  Neither the rates nor the clock may notice.
    make_bed = MONITORED_BEDS[bed]
    assert (_rates_and_clock(make_bed, monitored=True)
            == _rates_and_clock(make_bed, monitored=False))
