"""Microbenchmark: DES kernel event throughput.

Not a paper result — this guards the substrate every experiment runs on.
Uses pytest-benchmark's statistics properly (multiple rounds) since the
workload is cheap and deterministic.

Beyond the pytest-benchmark numbers, this archives a machine-readable
``BENCH_kernel_events.json`` with events/second, p50/p95 per-step
latency, and the throughput cost of installing the aliasing sanitizer
and the conservation ledger — so CI (and the next optimization PR) can
diff kernel performance without parsing console output.  The monitor
hooks themselves are lists tested for truthiness in the hot loop, so
the uninstalled cost is a single branch per event; the JSON records
the measured sanitizer-on/off ratios.

Overhead ratios are computed per interleaved round (plain and
instrumented runs back to back, ratio within the round) and reported as
the median across rounds, so runner clock drift cannot land on one side
of a ratio; absolute throughput keeps using the best round.
"""

import time

from _common import archive_json, scaled

from repro.check import AliasSanitizer, ConservationLedger
from repro.core import build_local_swift
from repro.des import Environment, Resource


def _build(num_workers=8, holds=500):
    env = Environment()
    resource = Resource(env, capacity=2)

    def worker(env):
        for _ in range(holds):
            with resource.request() as req:
                yield req
                yield env.timeout(0.001)

    for _ in range(num_workers):
        env.process(worker(env))
    return env


def _pingpong_workload():
    env = _build()
    env.run()
    return env.now


def _timed_run(aliasing: bool = False):
    """One full run; returns (events processed, elapsed seconds)."""
    env = _build()
    installed = None
    if aliasing:
        installed = AliasSanitizer(env)
        installed.install()
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    if installed is not None:
        installed.uninstall()
    return env._eid, elapsed


def _step_latencies():
    """Per-event step() latencies over one run, in seconds."""
    from repro.des.engine import EmptySchedule

    env = _build()
    samples = []
    while True:
        start = time.perf_counter()
        try:
            env.step()
        except EmptySchedule:
            break
        samples.append(time.perf_counter() - start)
    return sorted(samples)


def _swift_transfer_run(ledger: bool = False):
    """A striped write+read session; returns (kernel events, elapsed,
    ledger events observed).  Prices the byte-conservation sanitizer on
    the workload that actually emits transfer events."""
    deployment = build_local_swift(num_agents=4, parity=True)
    installed = None
    if ledger:
        installed = ConservationLedger(deployment.env).install()
    client = deployment.client()
    start = time.perf_counter()
    handle = client.open("obj", "w", parity=True, striping_unit=8192)
    handle.pwrite(0, b"\xa5" * (1 << 18))
    handle.pread(0, 1 << 18)
    handle.close()
    elapsed = time.perf_counter() - start
    observed = 0
    if installed is not None:
        installed.assert_clean()
        observed = installed.events_observed
        installed.uninstall()
    return deployment.env._eid, elapsed, observed


def _quantile(ordered, fraction):
    index = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[index]


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def bench_kernel_events(benchmark):
    benchmark(_pingpong_workload)
    # 8 workers x 500 holds of 1 ms through a capacity-2 resource: exactly
    # 4000 x 0.001 / 2 seconds of simulated time.
    assert abs(_pingpong_workload() - 2.0) < 1e-9

    rounds = scaled(9, 5)
    # Every overhead ratio is measured per round — plain and instrumented
    # runs back to back, the ratio taken within the round — and the
    # archived figure is the MEDIAN of the per-round ratios.  Dividing
    # two minima taken minutes apart (the old scheme) let clock-speed
    # drift on shared runners land on one side only, which is how a
    # baseline once recorded the conservation ledger *speeding a run up*
    # (ratio 0.86).  Throughput figures still use the best round: the
    # minimum is the least-noise estimate of the kernel itself.
    plain_times, aliased_ratios = [], []
    events = None
    for _ in range(rounds):
        events, base = _timed_run()
        aliased = _timed_run(aliasing=True)[1]
        plain_times.append(base)
        aliased_ratios.append(aliased / base)
    best_plain = min(plain_times)
    latencies = _step_latencies()

    # The transfer workload is short (~a millisecond), so whichever side
    # runs second in a round sees warmer caches; alternate the order so
    # the median cancels that bias too.
    transfer_times, ledger_ratios = [], []
    transfer_events = ledger_events = None
    for index in range(rounds):
        if index % 2:
            _, ledgered_elapsed, ledger_events = \
                _swift_transfer_run(ledger=True)
            transfer_events, transfer_elapsed, _ = _swift_transfer_run()
        else:
            transfer_events, transfer_elapsed, _ = _swift_transfer_run()
            _, ledgered_elapsed, ledger_events = \
                _swift_transfer_run(ledger=True)
        transfer_times.append(transfer_elapsed)
        ledger_ratios.append(ledgered_elapsed / transfer_elapsed)
    best_transfer = min(transfer_times)
    ledger_ratio = _median(ledger_ratios)

    payload = {
        "workload": "8 workers x 500 holds, capacity-2 resource",
        "events": events,
        "events_per_sec": events / best_plain,
        "p50_step_latency_us": _quantile(latencies, 0.50) * 1e6,
        "p95_step_latency_us": _quantile(latencies, 0.95) * 1e6,
        "aliasing_sanitizer_events_per_sec":
            events / (_median(aliased_ratios) * best_plain),
        "aliasing_sanitizer_overhead_ratio": _median(aliased_ratios),
        "transfer_workload": "256 KiB parity write + read over 3+1 agents",
        "transfer_kernel_events": transfer_events,
        "conservation_ledger_events": ledger_events,
        "conservation_ledger_events_per_sec":
            transfer_events / (ledger_ratio * best_transfer),
        "conservation_ledger_overhead_ratio": ledger_ratio,
    }
    path = archive_json("BENCH_kernel_events", payload)
    print(f"\nkernel: {payload['events_per_sec']:,.0f} events/s "
          f"(p50 {payload['p50_step_latency_us']:.2f} us, "
          f"p95 {payload['p95_step_latency_us']:.2f} us); "
          f"aliasing sanitizer "
          f"x{payload['aliasing_sanitizer_overhead_ratio']:.2f}; "
          f"conservation ledger "
          f"x{payload['conservation_ledger_overhead_ratio']:.2f} "
          f"-> {path}")
