"""Regression tests for the zero-copy write/read path.

Pins the behaviour of the two hidden-copy removals the aliasing pass
motivated: distribution._fetch_packet's preallocated short-read padding
and distribution.write's copy-only-when-writable input freeze (plus the
slice-assigning block installer in simdisk.filesystem._apply_write).

Then the path itself, so a reintroduced copy fails: write packets are
views of the caller's buffer (joined only across a unit boundary), an
aligned read hands back the stored block object, read-ahead leaves what
read() would leave, and tracemalloc peaks stay near one copy per byte.
"""

import tracemalloc

import pytest

from repro.core import build_local_swift
from repro.core.buffered import BufferedSwiftFile
from repro.core.storage_agent import _FileHandler
from repro.des import Environment, StreamFactory
from repro.prototype import PrototypeTestbed
from repro.simdisk import DISK_CATALOG, Disk, LocalFileSystem

MB = 1 << 20


@pytest.fixture()
def handle():
    deployment = build_local_swift(num_agents=3)
    return deployment.client().open("obj", "w", striping_unit=4096)


def test_sparse_write_reads_back_zero_holes(handle):
    # Holes exercise the short-read padding path: agents answer with
    # fewer bytes than requested and the client pads with zeros.
    handle.pwrite(1000, b"end")
    handle.pwrite(0, b"start")
    expected = b"start" + b"\x00" * 995 + b"end"
    assert handle.pread(0, 1003) == expected


def test_readahead_past_eof_pads_identically(handle):
    # The buffered read-ahead requests a full buffer regardless of the
    # object size, driving the padding path on every tail read.
    payload = bytes(range(256))
    buffered = BufferedSwiftFile(handle, buffer_size=4096)
    buffered.write(payload)
    buffered.flush()
    buffered.seek(0)
    assert buffered.read(len(payload)) == payload


def test_readonly_memoryview_input_is_bit_identical():
    payload = bytes(range(256)) * 32

    def run(data):
        deployment = build_local_swift(num_agents=3)
        h = deployment.client().open("obj", "w", striping_unit=4096)
        h.pwrite(0, data)
        return h.pread(0, len(payload)), deployment.env.now

    plain = run(payload)
    through_view = run(memoryview(payload))
    assert plain == through_view
    assert plain[0] == payload


def test_writable_input_is_snapshotted_once(handle):
    source = bytearray(b"immutable-in-flight" * 100)
    original = bytes(source)
    handle.pwrite(0, source)
    source[:] = b"\xff" * len(source)  # caller mutates after the write
    assert handle.pread(0, len(original)) == original


def test_unaligned_overwrites_install_exact_bytes(handle):
    # Odd offsets and spans crossing block boundaries exercise the
    # slice-assigning _apply_write on partial first/last blocks.
    base = bytes((i * 7 + 3) % 256 for i in range(5000))
    handle.pwrite(0, base)
    expected = bytearray(base)
    for offset, piece in ((3, b"XYZ"), (1021, b"Q" * 2050), (4999, b"!")):
        handle.pwrite(offset, piece)
        expected[offset:offset + len(piece)] = piece
    assert handle.pread(0, len(expected)) == bytes(expected)


# -- the write path: packets are views of the caller's buffer ----------------

def test_write_packets_are_views_of_the_callers_buffer(monkeypatch):
    # 12 KB packets over 8 KB units: a packet that crosses a unit
    # boundary of the agent's region is the only one joined.
    unit, packet_size = 8192, 12288
    received = []
    serve = _FileHandler._serve_write_data

    def recording(self, packet):
        received.append(packet)
        return serve(self, packet)

    monkeypatch.setattr(_FileHandler, "_serve_write_data", recording)
    deployment = build_local_swift(num_agents=3, packet_size=packet_size)
    handle = deployment.client().open("obj", "w", striping_unit=unit)
    assert len(handle.engine.data_channels) == 3
    data = bytes(range(256)) * (3 * 4 * unit // 256 + 40)  # 4+ units each
    handle.pwrite(100, data)

    assert received
    straddling = 0
    for packet in received:
        first_unit = packet.offset // unit
        last_unit = (packet.offset + len(packet.payload) - 1) // unit
        if first_unit != last_unit:
            straddling += 1
            assert type(packet.payload) is bytes
        else:
            assert isinstance(packet.payload, memoryview)
            assert packet.payload.obj is data
    assert 0 < straddling < len(received)
    assert handle.pread(100, len(data)) == data


def test_aligned_agent_read_returns_the_stored_block():
    # A one-packet, block-aligned read copies nothing on the way: the
    # agent's file system returns the stored block, the DATA packet
    # carries it and the client's one join of one piece returns it.
    deployment = build_local_swift(num_agents=3)
    handle = deployment.client().open("obj", "w", striping_unit=8192)
    handle.pwrite(0, bytes(range(256)) * 96)  # three units, one per agent
    agent = deployment.agent(handle.engine.data_channels[0].agent_host)
    fs = agent.filesystem
    stored = fs._store[fs._inodes["obj"].blocks[0]]
    assert handle.pread(0, 8192) is stored


# -- read-ahead: prefetch() leaves what read() leaves --------------------------

def _prefetch_scenario(use_prefetch: bool):
    """A 16-block cache over a 20-block file with a two-block hole.

    The setup's writes overflow the cache; after a cold-cache flush a
    read warms blocks 2-3.  At one instant a read of blocks 5-7 starts,
    then the read-ahead of blocks 3-13 (a hit, misses, the in-flight
    5-7, the hole 10-11); then a read-ahead of the cached blocks 2-3.
    """
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Sun 104MB SCSI"],
                stream=StreamFactory(5).stream("disk"))
    fs = LocalFileSystem(env, disk, block_size=1024, cache_blocks=16,
                         read_block_overhead_s=0.001)
    fs.create("f")

    def setup():
        yield from fs.write("f", 0, b"a" * 10 * 1024)
        yield from fs.write("f", 12 * 1024, b"b" * 8 * 1024 + b"c" * 100)

    env.process(setup())
    env.run()
    fs.flush_cache()

    def warm():
        yield from fs.read("f", 2 * 1024, 2 * 1024)

    env.process(warm())
    env.run()

    def reader():
        yield from fs.read("f", 5 * 1024, 3 * 1024)

    def read_ahead(offset, nbytes):
        if use_prefetch:
            fs.prefetch("f", offset, nbytes)
        else:
            def discard():
                yield from fs.read("f", offset, nbytes)
            env.process(discard())

    env.process(reader())
    read_ahead(3 * 1024, 11 * 1024)
    env.run()
    read_ahead(2 * 1024, 2 * 1024)
    env.run()
    stats = fs.cache.stats
    return (disk.blocks_served, list(fs.cache._blocks), stats.hits,
            stats.misses, stats.evictions, stats.writebacks, env.now,
            fs._inflight)


def test_prefetch_leaves_what_read_leaves():
    prefetched = _prefetch_scenario(use_prefetch=True)
    assert prefetched == _prefetch_scenario(use_prefetch=False)
    assert prefetched[-1] == {}  # nothing left in flight


def test_prefetch_schedules_nothing_when_nothing_misses():
    env = Environment()
    fs = LocalFileSystem(env, Disk(env, DISK_CATALOG["Sun 104MB SCSI"]),
                         block_size=1024)
    fs.create("f")

    def setup():
        yield from fs.write("f", 0, b"x" * 4096)

    env.process(setup())
    env.run()
    served, ids = fs.disk.blocks_served, env._eid
    fs.prefetch("f", 0, 4096)  # every block cached by the write
    fs.prefetch("f", 4096, 8192)  # at end of file
    fs.prefetch("f", 9000, 10)  # past it
    assert (fs.disk.blocks_served, env._eid) == (served, ids)
    assert env.peek() == float("inf")


# -- the whole path: tracemalloc peaks near one copy per byte ----------------

#: Peak traced allocation of a 1 MB seed-3 transfer, as a multiple of the
#: object size.  A write holds the caller's buffer and the agents' stored
#: blocks (~2.1x); a read holds the joined result (~1.1x).  The data
#: path before it sent views peaked at 3.6-4.1x and 2.1x.
WRITE_PEAK_BUDGET = 2.5
READ_PEAK_BUDGET = 1.4


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("second_ethernet", [False, True],
                         ids=["table1", "table4"])
def test_transfer_peaks_stay_near_one_copy_per_byte(second_ethernet):
    writer = PrototypeTestbed(second_ethernet=second_ethernet, seed=3)
    write_peak = _traced_peak(lambda: writer.measure_write("obj", MB))
    reader = PrototypeTestbed(second_ethernet=second_ethernet, seed=3)
    reader.prepare_object("obj", MB)
    read_peak = _traced_peak(lambda: reader.measure_read("obj", MB))
    assert write_peak <= WRITE_PEAK_BUDGET * MB
    assert read_peak <= READ_PEAK_BUDGET * MB
