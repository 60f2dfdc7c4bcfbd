"""Unit tests for the configuration cache."""

import pytest

from repro.core.config_cache import ConfigCache


class FakeConfig:
    """Stand-in: the cache never inspects the configuration object."""


def test_miss_then_hit():
    cache = ConfigCache()
    assert cache.lookup(("k", 1)) is None
    cache.insert(("k", 1), FakeConfig())
    entry = cache.lookup(("k", 1))
    assert entry is not None and entry.key == ("k", 1)


def test_ready_after_threshold_predictions():
    cache = ConfigCache(ready_threshold=4)
    entry = cache.insert(("k", 1), FakeConfig())
    results = [cache.predicted_again(entry) for _ in range(4)]
    assert results == [False, False, False, True]
    assert entry.ready


def test_unmappable_marker_never_ready():
    cache = ConfigCache()
    entry = cache.insert(("k", 1), None)
    for _ in range(10):
        assert cache.predicted_again(entry) is False
    assert not entry.ready
    assert cache.lookup(("k", 1)).configuration is None
    assert cache.mapped_trace_count == 0


def test_counter_saturates_at_counter_bits():
    cache = ConfigCache(counter_bits=3)
    entry = cache.insert(("k", 1), FakeConfig())
    for _ in range(100):
        cache.predicted_again(entry)
    assert entry.counter == 7


def test_lru_eviction_at_capacity():
    cache = ConfigCache(entries=2)
    cache.insert(("a",), FakeConfig())
    cache.insert(("b",), FakeConfig())
    cache.lookup(("a",))               # refresh a
    cache.insert(("c",), FakeConfig()) # evicts b (LRU)
    assert cache.lookup(("a",)) is not None
    assert cache.lookup(("b",)) is None
    assert cache.lookup(("c",)) is not None


def test_periodic_clearing_zeroes_counters():
    cache = ConfigCache(clear_interval=10)
    entry = cache.insert(("k", 1), FakeConfig())
    cache.predicted_again(entry)
    cache.predicted_again(entry)
    cache.tick(10)
    assert entry.counter == 0
    # Ready flag persists once earned.
    entry2 = cache.insert(("k", 2), FakeConfig())
    for _ in range(4):
        cache.predicted_again(entry2)
    cache.tick(10)
    assert entry2.ready


def test_mapped_trace_count_tracks_distinct_keys():
    cache = ConfigCache()
    cache.insert(("a",), FakeConfig())
    cache.insert(("b",), FakeConfig())
    cache.insert(("a",), FakeConfig())  # re-mapping the same key
    assert cache.mapped_trace_count == 2


def test_non_positive_clear_interval_rejected():
    for interval in (0, -5):
        with pytest.raises(ValueError):
            ConfigCache(clear_interval=interval)
    ConfigCache(clear_interval=1)
