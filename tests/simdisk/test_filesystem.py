"""Block file system: data integrity, timing, cache interaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Environment
from repro.simdisk import (
    DISK_CATALOG,
    Disk,
    FileExists,
    FileNotFound,
    FileSystemError,
    LocalFileSystem,
)


def make_fs(block_size=8192, **kwargs):
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])
    return env, LocalFileSystem(env, disk, block_size=block_size, **kwargs)


def run(env, gen):
    holder = {}

    def wrapper():
        holder["value"] = yield from gen

    env.process(wrapper())
    env.run()
    return holder.get("value")


def test_create_exists_unlink():
    env, fs = make_fs()
    assert not fs.exists("f")
    fs.create("f")
    assert fs.exists("f")
    assert fs.file_size("f") == 0
    fs.unlink("f")
    assert not fs.exists("f")


def test_exclusive_create_conflict():
    env, fs = make_fs()
    fs.create("f")
    with pytest.raises(FileExists):
        fs.create("f", exclusive=True)
    fs.create("f")  # non-exclusive recreate is fine


def test_operations_on_missing_file():
    env, fs = make_fs()
    with pytest.raises(FileNotFound):
        fs.file_size("missing")
    with pytest.raises(FileNotFound):
        run(env, fs.read("missing", 0, 10))


def test_write_read_roundtrip():
    env, fs = make_fs()
    fs.create("f")
    payload = bytes(range(256)) * 100
    run(env, fs.write("f", 0, payload))
    assert fs.file_size("f") == len(payload)
    data = run(env, fs.read("f", 0, len(payload)))
    assert data == payload


def test_read_crossing_block_boundaries():
    env, fs = make_fs(block_size=16)
    fs.create("f")
    payload = b"abcdefghijklmnopqrstuvwxyz0123456789"
    run(env, fs.write("f", 0, payload))
    assert run(env, fs.read("f", 10, 20)) == payload[10:30]


def test_overwrite_middle_of_file():
    env, fs = make_fs(block_size=16)
    fs.create("f")
    run(env, fs.write("f", 0, b"A" * 64))
    run(env, fs.write("f", 20, b"B" * 10))
    data = run(env, fs.read("f", 0, 64))
    assert data == b"A" * 20 + b"B" * 10 + b"A" * 34
    assert fs.file_size("f") == 64


def test_sparse_holes_read_as_zeros():
    env, fs = make_fs(block_size=16)
    fs.create("f")
    run(env, fs.write("f", 100, b"end"))
    data = run(env, fs.read("f", 0, 103))
    assert data == b"\x00" * 100 + b"end"


def test_short_read_at_eof():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"hello"))
    assert run(env, fs.read("f", 3, 100)) == b"lo"
    assert run(env, fs.read("f", 99, 10)) == b""


def test_async_write_takes_no_disk_time():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"x" * 65536, sync=False))
    assert env.now == 0.0
    assert fs.disk.blocks_served == 0


def test_sync_write_pays_disk():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"x" * 65536, sync=True))
    assert env.now > 0.0
    assert fs.disk.blocks_served == 8


def test_sync_flushes_dirty_blocks_once():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"x" * 65536))
    flushed = run(env, fs.sync("f"))
    assert flushed == 8
    # Everything clean now: a second sync writes nothing.
    assert run(env, fs.sync("f")) == 0


def test_cold_cache_read_pays_disk_warm_read_is_free():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"y" * 32768))
    fs.flush_cache()
    before = env.now
    run(env, fs.read("f", 0, 32768))
    cold_time = env.now - before
    assert cold_time > 0
    before = env.now
    run(env, fs.read("f", 0, 32768))
    assert env.now == before  # warm: all hits


def test_flush_cache_preserves_data():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"persist me"))
    fs.flush_cache()
    assert run(env, fs.read("f", 0, 10)) == b"persist me"


def test_unlink_drops_cache_entries():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"z" * 8192))
    fs.unlink("f")
    assert len(fs.cache) == 0


def test_allocator_reuse_across_files_is_caught():
    # A block handed out twice would silently overwrite the first file's
    # bytes; the allocator's check looks across files, not one inode.
    env, fs = make_fs()
    fs.create("a")
    run(env, fs.write("a", 0, b"a" * 8192))
    fs._next_disk_block = 0
    fs.create("b")
    with pytest.raises(FileSystemError):
        run(env, fs.write("b", 0, b"b" * 8192))
    assert run(env, fs.read("a", 0, 8192)) == b"a" * 8192


def test_contiguous_allocation_reads_sequentially():
    # With contiguous layout a long cold read pays one positioning, so it
    # is much faster than scattered layout.
    env1, fs1 = make_fs(contiguous_allocation=True)
    fs1.create("f")
    run(env1, fs1.write("f", 0, b"a" * 512 * 1024))
    fs1.flush_cache()
    run(env1, fs1.read("f", 0, 512 * 1024))
    contiguous_time = env1.now

    env2, fs2 = make_fs(contiguous_allocation=False)
    fs2.create("f")
    run(env2, fs2.write("f", 0, b"a" * 512 * 1024))
    fs2.flush_cache()
    run(env2, fs2.read("f", 0, 512 * 1024))
    scattered_time = env2.now

    assert scattered_time > 2 * contiguous_time


def test_read_overhead_charged_per_block():
    env, fs = make_fs(read_block_overhead_s=0.010)
    fs.create("f")
    run(env, fs.write("f", 0, b"b" * 81920))  # 10 blocks
    fs.flush_cache()
    start = env.now
    run(env, fs.read("f", 0, 81920))
    spec = fs.disk.spec
    expected = (spec.avg_seek_s + spec.avg_rotation_s
                + 10 * spec.transfer_time(8192) + 10 * 0.010)
    assert env.now - start == pytest.approx(expected)


def test_argument_validation():
    env, fs = make_fs()
    fs.create("f")
    with pytest.raises(ValueError):
        run(env, fs.write("f", -1, b"x"))
    with pytest.raises(ValueError):
        run(env, fs.read("f", -1, 4))
    with pytest.raises(ValueError):
        LocalFileSystem(env, fs.disk, block_size=0)


def test_list_files_sorted():
    env, fs = make_fs()
    for name in ["zebra", "alpha", "mid"]:
        fs.create(name)
    assert fs.list_files() == ["alpha", "mid", "zebra"]


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.binary(min_size=1, max_size=500),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_fs_matches_reference_bytearray(writes):
    """Property: the FS behaves like a flat byte array with holes."""
    env, fs = make_fs(block_size=64)
    fs.create("f")
    reference = bytearray()
    for offset, data in writes:
        run(env, fs.write("f", offset, data))
        if len(reference) < offset + len(data):
            reference.extend(b"\x00" * (offset + len(data) - len(reference)))
        reference[offset:offset + len(data)] = data
    fs.flush_cache()
    assert run(env, fs.read("f", 0, len(reference))) == bytes(reference)
    assert fs.file_size("f") == len(reference)


def test_concurrent_readers_share_one_in_flight_io():
    """Cold concurrent reads of one block cost exactly one disk access.

    The second reader must neither get the data early (before the I/O
    completes) nor issue a duplicate disk access: it waits on the first
    reader's in-flight fetch, like a real buffer cache.
    """
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"c" * 8192))
    fs.flush_cache()
    finish_times = []

    def reader():
        yield from fs.read("f", 0, 8192)
        finish_times.append(env.now)

    env.process(reader())
    env.process(reader())
    env.run()
    one_access = (fs.disk.spec.avg_seek_s + fs.disk.spec.avg_rotation_s
                  + fs.disk.spec.transfer_time(8192))
    assert finish_times[0] == pytest.approx(one_access)
    assert finish_times[1] == pytest.approx(one_access)
    assert fs.disk.blocks_served == 1  # no duplicate fetch


def test_distinct_blocks_still_queue_at_the_spindle():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"c" * 16384))
    fs.flush_cache()
    finish_times = []

    def reader(offset):
        yield from fs.read("f", offset, 8192)
        finish_times.append(env.now)

    env.process(reader(0))
    env.process(reader(8192))
    env.run()
    assert finish_times[1] > finish_times[0]
    assert fs.disk.blocks_served == 2


def test_cache_populated_after_cold_read():
    env, fs = make_fs()
    fs.create("f")
    run(env, fs.write("f", 0, b"w" * 16384))
    fs.flush_cache()
    run(env, fs.read("f", 0, 16384))
    assert len(fs.cache) == 2  # both blocks cached after the I/O
