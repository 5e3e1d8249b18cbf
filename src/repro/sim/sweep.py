"""Parameter sweeps: load curves and the maximum sustainable data-rate.

Figures 3 and 4 plot mean time-to-complete against the request arrival
rate; Figures 5 and 6 plot, per disk count and disk model, "the data-rate
observed by the client when the average time to complete a request is the
same as the average time between requests" (§5.2) — found here by bisection
on the arrival rate.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .model import SimResult, SwiftSimModel
from .workload import SimConfig

__all__ = ["run_once", "load_sweep", "find_max_sustainable"]


def run_once(config: SimConfig, storage_factory=None,
             trace=None) -> SimResult:
    """One simulation run (custom agent storage / trace replay optional)."""
    return SwiftSimModel(config, storage_factory=storage_factory,
                         trace=trace).run()


def load_sweep(base: SimConfig,
               arrival_rates: Sequence[float],
               storage_factory=None,
               workers: int = 1,
               cache=None) -> list[SimResult]:
    """Mean completion time across a grid of arrival rates.

    ``workers > 1`` fans the (independent, deterministic) runs out over a
    process pool; ``cache`` (a :class:`~repro.sim.cache.ResultCache`)
    short-circuits runs already on disk.  Both apply only to plain runs:
    a ``storage_factory`` is not part of the cache key and cannot be
    pickled reliably, so its presence forces the serial, uncached path.
    Every grid point builds its own model, so results are bit-identical
    across all paths.
    """
    if storage_factory is None and (workers > 1 or cache is not None):
        from .parallel import parallel_load_sweep
        return parallel_load_sweep(base, arrival_rates, workers=workers,
                                   cache=cache)
    results = []
    for rate in arrival_rates:
        config = dataclasses.replace(base, arrival_rate=rate)
        results.append(run_once(config, storage_factory=storage_factory))
    return results


def find_max_sustainable(base: SimConfig,
                         rate_low: float = 0.05,
                         rate_high: float = 400.0,
                         iterations: int = 10,
                         storage_factory=None,
                         cache=None) -> SimResult:
    """Bisect for the §5.2 maximum-sustainable-load point.

    Returns the result at the highest arrival rate found whose mean
    completion time does not exceed the mean interarrival time.

    The search first brackets that rate between two adjacent points of
    the grid ``rate_low * 2**k`` (capped at ``rate_high``), then bisects
    the bracket ``iterations`` times.  The bracket is seeded from the
    first probe: its mean completion time at ``rate_low`` is the
    unloaded time ``W0``, and completion time never drops below it, so
    no rate above ``1/W0`` is sustainable.  The seed is the largest grid
    rate not above ``min(1/W0, rate_high)`` (the top of the grid when
    ``W0`` is 0); the search halves from there while the probe is
    unsustainable and doubles while it is sustainable.  Whenever sustainability is
    monotone in rate this finds the same bracket — and so probes the
    same configs and returns the same result — as walking the grid up
    from ``rate_low``, in fewer probes: typically the seed and one
    neighbour.

    The search is sequential (each probe depends on the last verdict),
    but every probe is an independent run on a freshly built model, so
    a ``cache`` makes repeated searches resolve instantly; to
    parallelise *across* base configs use
    :func:`~repro.sim.parallel.find_max_sustainable_many`.
    """
    if rate_low <= 0 or rate_high <= rate_low:
        raise ValueError("need 0 < rate_low < rate_high")
    if storage_factory is not None:
        cache = None  # the factory is invisible to the cache key

    def sustainable(rate: float) -> tuple[bool, SimResult]:
        config = dataclasses.replace(base, arrival_rate=rate)
        if cache is not None:
            from .cache import config_key
            key = config_key(config)
            result = cache.get(key)
            if result is None:
                result = run_once(config, storage_factory=storage_factory)
                cache.put(key, result)
        else:
            result = run_once(config, storage_factory=storage_factory)
        return result.sustainable, result

    ok_low, best = sustainable(rate_low)
    if not ok_low:
        # Even the lightest load is unsustainable; report it as the bound.
        return best
    # Bracket the boundary between adjacent points of the rate_low * 2**k
    # grid, then bisect inside that (tight) bracket — far better
    # resolution than bisecting the whole [rate_low, rate_high] span.
    # Doubling and halving are exact, so every grid rate is the same
    # float however it is reached.  Seed at the largest grid rate whose
    # interarrival time still covers the unloaded completion time W0
    # (`W0 <= 1/rate` also admits W0 == 0); when sustainability is
    # monotone in rate, galloping from there meets the same first
    # unsustainable grid point as a walk up from rate_low.
    unloaded = best.mean_completion_s
    rate = rate_low
    while rate * 2.0 <= rate_high and unloaded <= 1.0 / (rate * 2.0):
        rate *= 2.0
    low, high = rate_low, None
    # Halve while unsustainable; rate_low itself is known sustainable.
    while rate > low:
        ok, result = sustainable(rate)
        if ok:
            low, best = rate, result
            break
        high = rate
        rate /= 2.0
    # Double while sustainable, up to the rate_high cap.
    while high is None and low * 2.0 <= rate_high:
        rate = low * 2.0
        ok, result = sustainable(rate)
        if ok:
            low, best = rate, result
        else:
            high = rate
    if high is None:
        ok, result = sustainable(rate_high)
        if ok:
            return result
        high = rate_high
    for _ in range(iterations):
        mid = (low + high) / 2.0
        ok, result = sustainable(mid)
        if ok:
            low, best = mid, result
        else:
            high = mid
    return best
