"""Seeded bug: passes milliseconds to a keyword parameter declared seconds.

The ``DiskSpec(avg_seek_s=seek_ms)`` class of bug (a 1000x seek-time
error).  Exactly one ``unit-mismatch`` finding fires here.
"""


def drive_spec(spec_class, seek_ms):
    return spec_class(avg_seek_s=seek_ms)
