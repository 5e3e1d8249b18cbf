#!/usr/bin/env python3
"""Alternative storage technologies: an archive on an array of DATs.

§7: "The Swift architecture also has the flexibility to use alternative
data storage technologies, such as arrays of digital audio tapes."  And
§6: a single RAID can never beat its controller, but "Swift can
concurrently drive a collection of Raids as high speed devices."

This example times a 256 MB archive restore from (a) one DAT drive,
(b) a Swift-striped array of eight DATs, and then shows the RAID
aggregation result on the §5 token ring.

Run:  python examples/tape_archive.py
"""

from repro.des import Environment
from repro.simdisk import DAT_DDS1, RaidArray, TapeDrive
from repro.sim import SimConfig, find_max_sustainable

MB = 1 << 20
KB = 1 << 10


def restore_from_tapes(num_drives: int, archive_size: int) -> float:
    """Seconds to stream an archive striped over ``num_drives`` DATs."""
    env = Environment()
    drives = [TapeDrive(env) for _ in range(num_drives)]
    share = archive_size // num_drives

    def reader(drive):
        yield from drive.transfer(0, share)

    for drive in drives:
        env.process(reader(drive))
    env.run()
    return env.now


def part1_tapes() -> None:
    archive_size = 256 * MB
    print("=" * 60)
    print(f"Part 1 — restoring a {archive_size // MB} MB archive from DAT")
    print(f"  drive: {DAT_DDS1.name}, "
          f"{DAT_DDS1.transfer_rate_bytes_per_s / 1000:.0f} KB/s streaming, "
          f"{DAT_DDS1.avg_position_s:.0f} s average locate")
    print("=" * 60)
    for drives in (1, 2, 4, 8):
        elapsed = restore_from_tapes(drives, archive_size)
        rate = archive_size / elapsed / 1000
        print(f"{drives} drive(s): {elapsed / 60:6.1f} minutes "
              f"({rate:6.0f} KB/s aggregate)")
    print()
    print("striping multiplies the streaming rate; the locate is paid "
          "once per drive, in parallel")


def part2_raids() -> None:
    print()
    print("=" * 60)
    print("Part 2 — Swift over a collection of RAIDs (gigabit ring)")
    print("=" * 60)

    def raid_factory(env, index, streams):
        return RaidArray(env, num_members=8, controller_rate=4 * MB,
                         stream=streams.stream(f"raid/{index}"))

    for raids in (1, 4):
        config = SimConfig(num_disks=raids, transfer_unit=256 * KB,
                           request_size=4 * MB, num_requests=120,
                           warmup_requests=12, seed=3)
        result = find_max_sustainable(config, iterations=6,
                                      storage_factory=raid_factory)
        label = "one array (controller-capped)" if raids == 1 \
            else f"Swift over {raids} arrays"
        print(f"{label}: {result.client_data_rate / MB:5.2f} MB/s sustained")
    print()
    print("each array's 4 MB/s controller is the ceiling for a")
    print("centralized system; Swift aggregates right past it (§6)")


def main() -> None:
    part1_tapes()
    part2_raids()


if __name__ == "__main__":
    main()
