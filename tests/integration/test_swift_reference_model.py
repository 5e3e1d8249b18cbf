"""Property-based full-stack check: Swift behaves like a flat byte array.

Random sequences of writes, reads and seeks against a live deployment are
compared against a plain bytearray reference model — across striping
units and packet sizes, with and without parity.  Packets that straddle
units, end mid-unit or exceed a unit, holes and short packets at an
agent's end of file all run through the write gather and the read's one
join.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import build_local_swift


operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"),
                  st.integers(min_value=0, max_value=60_000),
                  st.binary(min_size=1, max_size=20_000)),
        st.tuples(st.just("read"),
                  st.integers(min_value=0, max_value=70_000),
                  st.integers(min_value=0, max_value=30_000)),
    ),
    min_size=1, max_size=8,
)

#: Packet sizes: under an Ethernet frame, under, at and over a unit.
packet_sizes = st.sampled_from([1500, 4096, 8192, 12288])


def apply_to_reference(reference: bytearray, op) -> bytes | None:
    kind, offset, arg = op
    if kind == "write":
        if len(reference) < offset + len(arg):
            reference.extend(b"\x00" * (offset + len(arg) - len(reference)))
        reference[offset:offset + len(arg)] = arg
        return None
    end = min(len(reference), offset + arg)
    if offset >= len(reference):
        return b""
    return bytes(reference[offset:end])


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, unit=st.sampled_from([1024, 4096, 8192]),
       packet_size=packet_sizes)
def test_plain_swift_matches_reference(ops, unit, packet_size):
    deployment = build_local_swift(num_agents=3, packet_size=packet_size)
    client = deployment.client()
    handle = client.open("obj", "w", striping_unit=unit)
    reference = bytearray()
    for op in ops:
        expected = apply_to_reference(reference, op)
        kind, offset, arg = op
        if kind == "write":
            handle.pwrite(offset, arg)
        else:
            assert handle.pread(offset, arg) == expected
    assert handle.pread(0, len(reference)) == bytes(reference)
    assert handle.size == len(reference)
    handle.close()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, packet_size=packet_sizes)
def test_parity_swift_matches_reference(ops, packet_size):
    deployment = build_local_swift(num_agents=4, parity=True,
                                   packet_size=packet_size)
    client = deployment.client()
    handle = client.open("obj", "w", parity=True, striping_unit=4096)
    reference = bytearray()
    for op in ops:
        expected = apply_to_reference(reference, op)
        kind, offset, arg = op
        if kind == "write":
            handle.pwrite(offset, arg)
        else:
            assert handle.pread(offset, arg) == expected
    assert handle.pread(0, len(reference)) == bytes(reference)
    handle.close()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, victim=st.integers(min_value=0, max_value=2))
def test_degraded_parity_swift_matches_reference(ops, victim):
    """Same property with a data agent dead the whole time."""
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    handle = client.open("obj", "w", parity=True, striping_unit=4096)
    engine = handle.engine
    victim %= engine.layout.num_agents
    deployment.crash_agent(engine.data_channels[victim].agent_host)
    engine.mark_failed(victim)
    engine.read_timeout_s = 0.01
    reference = bytearray()
    for op in ops:
        expected = apply_to_reference(reference, op)
        kind, offset, arg = op
        if kind == "write":
            handle.pwrite(offset, arg)
        else:
            assert handle.pread(offset, arg) == expected
    assert handle.pread(0, len(reference)) == bytes(reference)
