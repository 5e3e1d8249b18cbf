"""Back-to-back runs in one interpreter: every run builds its counters
fresh, so the same config run twice gives bit-identical results."""

import dataclasses
import math

from repro.sim import SimConfig, run_once


def _tiny_config():
    return SimConfig(num_disks=2, num_clients=2, num_requests=12,
                     warmup_requests=2, arrival_rate=4.0, seed=11)


def test_back_to_back_runs_are_identical():
    # With fresh counters and explicit seeds, the same config run twice
    # in one interpreter produces bit-identical results.
    first = run_once(_tiny_config())
    second = run_once(_tiny_config())
    for field in dataclasses.fields(first):
        if field.name == "config":
            continue
        a = getattr(first, field.name)
        b = getattr(second, field.name)
        assert a == b or (math.isnan(a) and math.isnan(b)), field.name
