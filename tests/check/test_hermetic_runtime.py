"""The effect/purity pass, runtime half: the hermeticity sanitizer."""

import os
import random
import time

import pytest

from repro.check.sanitize import (
    AmbientReadError,
    HermeticityError,
    HermeticitySanitizer,
    hermetic_sanitize,
)
from repro.sim.parallel import _run_config
from repro.sim.workload import SimConfig

CONFIG = SimConfig(num_disks=2, arrival_rate=5.0, num_requests=60,
                   warmup_requests=10, seed=7)


# -- ambient-read traps -------------------------------------------------------


def test_time_read_inside_block_raises():
    with pytest.raises(AmbientReadError) as excinfo:
        with hermetic_sanitize():
            time.time()
    assert "time.time()" in str(excinfo.value)
    assert "hermetic block entered at:" in str(excinfo.value)


def test_monotonic_is_trapped_but_perf_counter_is_not():
    with hermetic_sanitize():
        elapsed = time.perf_counter()  # the blessed benchmarking clock
        with pytest.raises(AmbientReadError):
            time.monotonic()
    assert elapsed > 0.0


def test_module_level_random_raises_but_seeded_instances_work():
    with hermetic_sanitize():
        rng = random.Random(42)
        value = rng.random()  # RandomStream._rng style: untouched
        with pytest.raises(AmbientReadError):
            random.random()
    assert 0.0 <= value < 1.0


def test_environ_reads_raise_via_both_spellings():
    with hermetic_sanitize():
        with pytest.raises(AmbientReadError):
            os.environ.get("HOME")
        with pytest.raises(AmbientReadError):
            os.getenv("HOME")
        with pytest.raises(AmbientReadError):
            "HOME" in os.environ


def test_traps_are_fully_restored_after_the_block():
    before_time = time.time
    before_environ = os.environ
    with hermetic_sanitize():
        pass
    assert time.time is before_time
    assert os.environ is before_environ
    assert time.time() > 0.0
    assert os.environ.get("PATH") is not None


def test_traps_restored_even_when_body_raises():
    with pytest.raises(RuntimeError):
        with hermetic_sanitize():
            raise RuntimeError("body failure")
    assert time.time() > 0.0
    assert isinstance(os.environ.get("PATH", ""), str)


def test_trap_error_carries_dual_stacks():
    try:
        with hermetic_sanitize():
            time.time()
    except AmbientReadError as error:
        message = str(error)
        assert "hermetic block entered at:" in message
        assert "use site: this exception's own traceback" in message
    else:  # pragma: no cover
        pytest.fail("trap did not fire")


# -- module-global snapshot/diff ----------------------------------------------


def test_undeclared_global_drift_raises_at_exit():
    import repro.core.session as session
    with pytest.raises(HermeticityError) as excinfo:
        with hermetic_sanitize():
            next(session._session_ids)
    assert "_session_ids" in str(excinfo.value)
    assert "invisible to the cache key" in str(excinfo.value)


def test_blessed_memo_population_is_allowed():
    import repro.sim.cache as cache
    from repro.sim.cache import config_key
    cache._code_version_cache.clear()
    with hermetic_sanitize():
        config_key(CONFIG)
    assert cache._code_version_cache  # populated, and no error


def test_empty_allowlist_flags_the_memo_too():
    import repro.sim.cache as cache
    from repro.sim.cache import config_key
    cache._code_version_cache.clear()
    with pytest.raises(HermeticityError) as excinfo:
        with hermetic_sanitize(allowed=()):
            config_key(CONFIG)
    assert "_code_version_cache" in str(excinfo.value)


def test_explicit_watch_module_registration():
    import repro.core.session as session
    monitor = HermeticitySanitizer()
    monitor.watch_module(session)
    assert ("repro.core.session", "_session_ids") in monitor._watched


# -- the real cached run ------------------------------------------------------


def test_cached_model_run_is_hermetic():
    # The headline guarantee: the function ResultCache stores results of
    # runs clean under every trap and leaves every watched global alone.
    with hermetic_sanitize() as monitor:
        result = _run_config(CONFIG)
    assert result.config == CONFIG
    assert monitor.trips == 0


def test_hermetic_run_is_bit_identical_to_bare_run():
    bare = _run_config(CONFIG)
    with hermetic_sanitize():
        sanitized = _run_config(CONFIG)
    assert sanitized == bare
