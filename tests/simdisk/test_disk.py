"""Disk model: service times, queueing, utilization."""

import pytest

from repro.des import Environment, RandomStream
from repro.simdisk import DISK_CATALOG, Disk, DiskSpec


def run_access(env, disk, **kwargs):
    result = {}

    def proc(env):
        result["time"] = yield disk.access_op(**kwargs)

    env.process(proc(env))
    env.run()
    return result["time"]


def test_spec_validation():
    with pytest.raises(ValueError):
        DiskSpec("bad", -1.0, 0.008, 2.5e6)
    with pytest.raises(ValueError):
        DiskSpec("bad", 0.016, 0.008, 0.0)
    with pytest.raises(ValueError):
        DiskSpec("bad", 0.016, 0.008, 2.5e6, capacity_bytes=0)


def test_paper_states_37ms_for_32kb_on_m2372k():
    # §5.2: "transferring 32 kilobytes required about 37 milliseconds on
    # the average" (seek 16 + rotation 8.3 + 32768/2.5MB/s = 13.1 -> ~37ms).
    spec = DISK_CATALOG["Fujitsu M2372K"]
    assert spec.mean_access_time(32 * 1024) == pytest.approx(0.0374, abs=0.0005)


def test_deterministic_access_time_matches_spec():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)  # no stream: expected values
    elapsed = run_access(env, disk, nbytes=32 * 1024)
    assert elapsed == pytest.approx(spec.mean_access_time(32 * 1024))


def test_multiblock_pays_positioning_per_block():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    elapsed = run_access(env, disk, nbytes=4096, blocks=4)
    assert elapsed == pytest.approx(4 * spec.mean_access_time(4096))


def test_sequential_pays_positioning_once():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    elapsed = run_access(env, disk, nbytes=4096, blocks=4, sequential=True)
    expected = (spec.avg_seek_s + spec.avg_rotation_s
                + 4 * spec.transfer_time(4096))
    assert elapsed == pytest.approx(expected)


def test_random_positioning_bounded_by_uniform_range():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec, stream=RandomStream(123))
    for _ in range(200):
        draw = disk.draw_positioning_time()
        assert 0.0 <= draw <= 2 * (spec.avg_seek_s + spec.avg_rotation_s)


def test_concurrent_requests_queue_on_spindle():
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    finish_times = []

    def user(env):
        yield disk.access_op(nbytes=32 * 1024)
        finish_times.append(env.now)

    env.process(user(env))
    env.process(user(env))
    env.run()
    one = spec.mean_access_time(32 * 1024)
    assert finish_times == pytest.approx([one, 2 * one])


def test_multiblock_holds_resource_against_competitor():
    # The paper: "Multiblock requests are allowed to complete before the
    # resource is relinquished."
    env = Environment()
    spec = DISK_CATALOG["Fujitsu M2372K"]
    disk = Disk(env, spec)
    order = []

    def big(env):
        yield disk.access_op(nbytes=4096, blocks=8)
        order.append("big")

    def small(env):
        yield env.timeout(0.001)  # arrives while 'big' is in progress
        yield disk.access_op(nbytes=4096)
        order.append("small")

    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == ["big", "small"]


def test_utilization_full_when_saturated():
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])

    def user(env):
        for _ in range(10):
            yield disk.access_op(nbytes=32 * 1024)

    env.process(user(env))
    env.run()
    assert disk.utilization() == pytest.approx(1.0)
    assert disk.blocks_served == 10
    assert disk.bytes_served == 10 * 32 * 1024


def _access_chain(accesses, expanded):
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"],
                stream=RandomStream(7))
    # Any on_block callback needs every block's completion, so the
    # chain expands into one calendar entry per block.
    on_block = (lambda index: None) if expanded else None
    times = []

    def user(env):
        for kwargs in accesses:
            times.append((yield disk.access_op(nbytes=4096,
                                               on_block=on_block,
                                               **kwargs)))

    env.process(user(env))
    env.run()
    outcome = (times, disk.blocks_served, disk.bytes_served, disk._head,
               disk.utilization(), env.now)
    return env, outcome


@pytest.mark.parametrize("accesses", [
    [dict(blocks=8)],
    [dict(blocks=8, sequential=True)],
    [dict(blocks=4, sequential=True, at_block=100),
     dict(blocks=4, at_block=104)],
], ids=["random", "sequential", "head-continues"])
def test_coalesced_chain_matches_expanded_chain(accesses):
    plain_env, plain = _access_chain(accesses, expanded=False)
    expanded_env, expanded = _access_chain(accesses, expanded=True)
    assert plain == expanded
    assert plain_env._eid < expanded_env._eid


def test_access_argument_validation():
    env = Environment()
    disk = Disk(env, DISK_CATALOG["Fujitsu M2372K"])
    with pytest.raises(ValueError):
        disk.access_op(nbytes=4096, blocks=0)
    with pytest.raises(ValueError):
        disk.access_op(nbytes=-1)


def test_catalog_has_all_figure_disks():
    from repro.simdisk import FIGURE_5_6_DISKS
    for name in FIGURE_5_6_DISKS:
        assert name in DISK_CATALOG
