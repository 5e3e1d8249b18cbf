"""LRU buffer cache behaviour."""

import pytest

from repro.simdisk import BufferCache


def test_capacity_validation():
    with pytest.raises(ValueError):
        BufferCache(0)


def test_miss_then_hit():
    cache = BufferCache(4)
    assert cache.lookup("a") is None
    cache.insert("a", b"data")
    assert cache.lookup("a") == b"data"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio == 0.5


def test_lru_eviction_order():
    cache = BufferCache(2)
    cache.insert("a", b"1")
    cache.insert("b", b"2")
    cache.insert("c", b"3")  # evicts a
    assert "a" not in cache
    assert "b" in cache and "c" in cache
    assert cache.stats.evictions == 1


def test_lookup_promotes_entry():
    cache = BufferCache(2)
    cache.insert("a", b"1")
    cache.insert("b", b"2")
    cache.lookup("a")          # promote a
    cache.insert("c", b"3")    # evicts b, not a
    assert "a" in cache
    assert "b" not in cache


def test_dirty_eviction_reports_writeback():
    cache = BufferCache(1)
    cache.insert("a", b"1", dirty=True)
    writebacks = cache.insert("b", b"2")
    assert writebacks == ["a"]
    assert cache.stats.writebacks == 1


def test_clean_removes_dirty_mark():
    cache = BufferCache(2)
    cache.insert("a", b"1", dirty=True)
    cache.clean("a")
    assert cache.dirty_keys() == set()


def test_flush_returns_dirty_and_empties():
    cache = BufferCache(4)
    cache.insert("a", b"1", dirty=True)
    cache.insert("b", b"2")
    dirty = cache.flush()
    assert dirty == ["a"]
    assert len(cache) == 0
    assert cache.lookup("b") is None


def test_invalidate_single_block():
    cache = BufferCache(4)
    cache.insert("a", b"1", dirty=True)
    cache.invalidate("a")
    assert "a" not in cache
    assert cache.dirty_keys() == set()


def test_reinsert_same_key_updates_value():
    cache = BufferCache(2)
    cache.insert("a", b"old")
    cache.insert("a", b"new")
    assert cache.lookup("a") == b"new"
    assert len(cache) == 1


def test_hit_ratio_empty_cache():
    cache = BufferCache(4)
    assert cache.stats.hit_ratio == 0.0
