"""RAID arrays and tape drives — the §6/§7 alternative backends."""

import pytest

from repro.des import Environment, RandomStream
from repro.simdisk import DAT_DDS1, RaidArray, TapeDrive, TapeSpec

MB = 1 << 20
KB = 1 << 10


def run(env, gen):
    holder = {}

    def wrapper():
        holder["v"] = yield from gen

    env.process(wrapper())
    env.run()
    return holder["v"]


def test_raid_validation():
    env = Environment()
    with pytest.raises(ValueError):
        RaidArray(env, num_members=1)
    with pytest.raises(ValueError):
        RaidArray(env, controller_rate=0)
    with pytest.raises(ValueError):
        RaidArray(env, controller_overhead_s=-1)


def test_raid_controller_caps_streaming_rate():
    env = Environment()
    raid = RaidArray(env, num_members=16, controller_rate=4 * MB)
    size = 8 * MB
    elapsed = run(env, raid.access(64 * KB, blocks=size // (64 * KB),
                                   sequential=True))
    rate = size / elapsed
    # 16 fast members, but the single controller caps near 4 MB/s.
    assert rate < 4.2 * MB
    assert rate > 2.5 * MB


def test_raid_members_help_small_blocks():
    # For positioning-dominated access the members parallelise the
    # transfer; more members cannot make positioning worse.
    env = Environment()
    small = RaidArray(env, num_members=2, controller_rate=100 * MB)
    big = RaidArray(env, num_members=16, controller_rate=100 * MB)
    assert big.block_service_time(256 * KB) <= \
        small.block_service_time(256 * KB)


def test_raid_counts_blocks():
    env = Environment()
    raid = RaidArray(env, num_members=4)
    run(env, raid.access(32 * KB, blocks=3))
    assert raid.blocks_served == 3
    assert raid.bytes_served == 3 * 32 * KB
    assert raid.utilization() > 0


def test_raid_queueing_serialises_at_controller():
    env = Environment()
    raid = RaidArray(env, num_members=4)
    done = []

    def user():
        yield from raid.access(32 * KB)
        done.append(env.now)

    env.process(user())
    env.process(user())
    env.run()
    assert done[1] == pytest.approx(2 * done[0], rel=0.01)


def test_tape_spec_validation():
    with pytest.raises(ValueError):
        TapeSpec("bad", -1, 1000, 100)
    with pytest.raises(ValueError):
        TapeSpec("bad", 1, 0, 100)
    with pytest.raises(ValueError):
        TapeSpec("bad", 1, 1000, 0)


def test_tape_streams_after_one_locate():
    env = Environment()
    drive = TapeDrive(env)
    size = 1 * MB
    first = run(env, drive.transfer(0, size))
    # First transfer pays the 20 s locate...
    rate = DAT_DDS1.transfer_rate_bytes_per_s
    assert first == pytest.approx(20.0 + size / rate)
    # ...a contiguous continuation streams at the media rate.
    second = run(env, drive.transfer(size, size))
    assert second == pytest.approx(size / rate)


def test_tape_random_access_pays_locate_again():
    env = Environment()
    drive = TapeDrive(env)
    run(env, drive.transfer(0, 1000))
    jump = run(env, drive.transfer(5_000_000, 1000))
    assert jump > 19.0


def test_tape_randomised_locate_bounded():
    env = Environment()
    drive = TapeDrive(env, stream=RandomStream(5))
    for _ in range(50):
        draw = drive.draw_position_time()
        assert 0.0 <= draw <= 2 * DAT_DDS1.avg_position_s


def test_striping_over_tapes_multiplies_streaming_rate():
    """The §7 claim: Swift over an array of DATs.

    Eight drives, each streaming its share of a large archive object in
    parallel, deliver ~8x one drive's rate (locates overlap).
    """
    size = 64 * MB

    def read_striped(num_drives):
        env = Environment()
        drives = [TapeDrive(env) for _ in range(num_drives)]
        share = size // num_drives

        def reader(drive):
            yield from drive.transfer(0, share)

        for drive in drives:
            env.process(reader(drive))
        env.run()
        return size / env.now

    single = read_striped(1)
    eight = read_striped(8)
    # Streaming parallelises perfectly; the per-drive locate is the only
    # non-amortised cost, so the speedup is a bit under 8x.
    assert eight > 5.5 * single
