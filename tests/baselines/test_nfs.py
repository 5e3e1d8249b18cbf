"""Table 3 baseline: NFS rates and write-through behaviour."""

import gc
import weakref

import pytest

from repro.baselines import NfsBaseline
from repro.baselines.nfs import NFS_SERVER_RPC_OVERHEAD_S
from repro.calibration import NFS_BLOCK_SIZE
from repro.des import RandomStream

from ..simnet.recording import RecordingCpu

MB = 1 << 20


def test_read_band():
    baseline = NfsBaseline(seed=5)
    baseline.prepare_file("f", 3 * MB)
    rate = baseline.measure_read("f", 3 * MB)
    assert 430 <= rate <= 510  # paper: 456-488


def test_write_band():
    baseline = NfsBaseline(seed=5)
    rate = baseline.measure_write("f", 3 * MB)
    assert 100 <= rate <= 120  # paper: 109-112


def test_write_through_hits_server_disk():
    baseline = NfsBaseline(seed=5)
    disk = baseline.server.filesystem.disk
    baseline.measure_write("f", MB)
    # Every 8 KB block forces at least data + metadata disk operations.
    blocks = MB // 8192
    assert disk.blocks_served >= blocks * 3


def test_reads_do_not_write_disk():
    baseline = NfsBaseline(seed=5)
    baseline.prepare_file("f", MB)
    disk = baseline.server.filesystem.disk
    before = disk.blocks_served
    baseline.measure_read("f", MB)
    served = disk.blocks_served - before
    # Reads hit the disk (cold cache) but only about once per block.
    assert MB // 8192 <= served <= MB // 8192 * 2


def test_write_data_lands_exactly():
    baseline = NfsBaseline(seed=5)
    baseline.measure_write("f", 100_000)
    fs = baseline.server.filesystem
    assert fs.file_size("f") == 100_000


def test_nfs_write_much_slower_than_read():
    # The paper's headline asymmetry: write-through makes NFS writes ~4x
    # slower than NFS reads.
    baseline = NfsBaseline(seed=5)
    baseline.prepare_file("f", 3 * MB)
    read_rate = baseline.measure_read("f", 3 * MB)
    writer = NfsBaseline(seed=5)
    write_rate = writer.measure_write("f", 3 * MB)
    assert read_rate > 3.5 * write_rate


def test_lost_request_is_a_clean_error():
    # NFS over UDP here has no retransmission: with every datagram lost
    # the reply never comes.  The background load puts nothing on the
    # calendar, so the run ends with an error instead of spinning.
    baseline = NfsBaseline(seed=5)
    baseline.prepare_file("f", MB)
    segment = baseline.network.medium("departmental")
    segment.loss_probability = 1.0
    segment.loss_stream = RandomStream(1)
    with pytest.raises(RuntimeError, match="schedule is empty"):
        baseline.measure_read("f", MB)
    assert segment.stats.datagrams_lost == 1
    assert baseline.env.now < 0.01


def test_dropping_the_baseline_frees_the_served_file_without_the_collector():
    # The server loop never finishes, a reference cycle through the
    # server and its file system; dropping the baseline ends it, so the
    # file goes at once instead of at a full collection.
    baseline = NfsBaseline(seed=5)
    baseline.prepare_file("f", MB)
    baseline.measure_read("f", MB)
    filesystem = weakref.ref(baseline.server.filesystem)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del baseline
        assert filesystem() is None
    finally:
        if enabled:
            gc.enable()


def test_each_rpc_holds_the_server_cpu_for_its_overhead():
    # Decode and dispatch of each RPC is one hold of exactly the
    # overhead on the server CPU, queued with its datagram charges.
    baseline = NfsBaseline(seed=3, background_load=0.0)
    server_cpu = RecordingCpu(baseline.env)
    baseline.server.host.cpu = server_cpu
    baseline.prepare_file("f", 5 * NFS_BLOCK_SIZE)
    baseline.measure_read("f", 5 * NFS_BLOCK_SIZE)
    baseline.measure_write("g", 3 * NFS_BLOCK_SIZE)
    assert server_cpu.holds.count(NFS_SERVER_RPC_OVERHEAD_S) == 8
    # Each RPC also charges its request's receive and its reply's send.
    assert len(server_cpu.holds) == 3 * 8
