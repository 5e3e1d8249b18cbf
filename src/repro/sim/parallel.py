"""Parallel sweep execution: fan simulation runs out across processes.

Each simulation run is sealed: it builds its own
:class:`~repro.des.Environment` and draws every variate from a
:class:`~repro.des.random_streams.StreamFactory` seeded by
``config.seed``.  Runs therefore commute — executing them in worker
processes, in any order, yields bit-identical :class:`SimResult` values
to the serial loop.  That identity is the correctness contract of this
module (and is pinned by tests/sim/test_parallel.py).

Workers are plain ``multiprocessing`` pool processes; the unit of work is
one whole run (seconds of CPU), so pickling one frozen ``SimConfig`` per
task is noise.  ``workers <= 1`` short-circuits to the serial loop with no
pool at all, which keeps single-core containers and nested-process-averse
environments on the exact code path they had before.

An optional :class:`~repro.sim.cache.ResultCache` short-circuits runs
whose ``(config, code-version)`` key already has a stored result.  The
cache is only consulted for plain runs — a ``storage_factory`` or
``trace`` changes the model in ways the key cannot see, so those runs
always execute (and are never stored).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from pathlib import Path
from typing import Optional, Sequence

from .cache import ResultCache, config_key
from .model import SimResult, SwiftSimModel
from .workload import SimConfig

__all__ = ["run_many", "parallel_load_sweep", "find_max_sustainable_many"]


def _pool_context():
    """Fork where available (cheap, inherits the imported package); spawn
    otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_config(config: SimConfig) -> SimResult:
    """Module-level worker body: one plain run (picklable by name)."""
    return SwiftSimModel(config).run()


def run_many(configs: Sequence[SimConfig],
             workers: int = 1,
             cache: Optional[ResultCache] = None) -> list[SimResult]:
    """Run every config, in input order, optionally in parallel and cached.

    Cached results are filled in first; only the misses are executed
    (serially for ``workers <= 1`` or a single miss, otherwise on a
    process pool).  Freshly computed results are stored back before
    returning.  Output order always matches ``configs``.
    """
    configs = list(configs)
    results: list[Optional[SimResult]] = [None] * len(configs)
    misses: list[int] = []
    keys: dict[int, str] = {}
    for index, config in enumerate(configs):
        if cache is not None:
            key = config_key(config)
            keys[index] = key
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
                continue
        misses.append(index)

    if misses:
        miss_configs = [configs[index] for index in misses]
        if workers <= 1 or len(misses) == 1:
            computed = [_run_config(config) for config in miss_configs]
        else:
            context = _pool_context()
            with context.Pool(min(workers, len(misses))) as pool:
                computed = pool.map(_run_config, miss_configs)
        for index, result in zip(misses, computed):
            results[index] = result
            if cache is not None:
                cache.put(keys[index], result)
    return results  # type: ignore[return-value]


def parallel_load_sweep(base: SimConfig,
                        arrival_rates: Sequence[float],
                        workers: int = 1,
                        cache: Optional[ResultCache] = None
                        ) -> list[SimResult]:
    """The :func:`~repro.sim.sweep.load_sweep` grid, fanned out."""
    configs = [dataclasses.replace(base, arrival_rate=rate)
               for rate in arrival_rates]
    return run_many(configs, workers=workers, cache=cache)


def _run_max_sustainable(task) -> SimResult:
    """Worker body for one full bisection (picklable by name).

    ``task`` is ``(base, rate_low, rate_high, iterations, cache_root)``;
    the cache is reopened by path because ResultCache holds no picklable
    state worth shipping — the directory *is* the cache.
    """
    from .sweep import find_max_sustainable
    base, rate_low, rate_high, iterations, cache_root = task
    cache = ResultCache(cache_root) if cache_root is not None else None
    return find_max_sustainable(base, rate_low=rate_low,
                                rate_high=rate_high,
                                iterations=iterations, cache=cache)


def find_max_sustainable_many(bases: Sequence[SimConfig],
                              rate_low: float = 0.05,
                              rate_high: float = 400.0,
                              iterations: int = 10,
                              workers: int = 1,
                              cache: Optional[ResultCache] = None
                              ) -> list[SimResult]:
    """§5.2 maximum-sustainable-load search over many base configs.

    The bisection itself is inherently sequential (each probe rate depends
    on the previous verdict), so parallelism comes from fanning out the
    *independent* searches — one per figure-grid cell — across workers.
    Results keep the order of ``bases``.
    """
    bases = list(bases)
    if workers <= 1 or len(bases) == 1:
        # In-process searches share the caller's cache instance, so its
        # hit/miss counters see every probe.
        from .sweep import find_max_sustainable
        return [find_max_sustainable(base, rate_low=rate_low,
                                     rate_high=rate_high,
                                     iterations=iterations, cache=cache)
                for base in bases]
    cache_root: Optional[Path] = cache.root if cache is not None else None
    tasks = [(base, rate_low, rate_high, iterations, cache_root)
             for base in bases]
    context = _pool_context()
    # One search per worker process: a search is long, so a fresh
    # worker costs little, and each search's spans carry their own pid
    # (otherwise a worker that starts first can take several).
    with context.Pool(min(workers, len(tasks)),
                      maxtasksperchild=1) as pool:
        return pool.map(_run_max_sustainable, tasks, chunksize=1)
