"""Unit tests for the cache hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ooo.caches import Cache, CacheHierarchy
from repro.ooo.config import CoreConfig


def make_l1():
    return Cache("L1D", size_kb=1, assoc=2, block_bytes=64, latency=2)


def test_compulsory_miss_then_hit():
    c = make_l1()
    assert c.lookup(0x0) is False
    assert c.lookup(0x0) is True
    assert c.lookup(0x3C) is True   # same 64B block
    assert c.lookup(0x40) is False  # next block


def test_lru_eviction_within_set():
    c = make_l1()  # 1KB/64B = 16 blocks, 2-way -> 8 sets
    set_stride = 8 * 64  # same set every 512 bytes
    a, b, d = 0, set_stride, 2 * set_stride
    c.lookup(a)
    c.lookup(b)
    c.lookup(a)        # a is now MRU
    c.lookup(d)        # evicts b (LRU)
    assert c.lookup(a)
    assert c.lookup(d)
    assert not c.lookup(b)


def test_sets_are_allocated_on_first_touch():
    """A fresh cache holds no per-set list; an access allocates its own
    set's list and no other, through ``lookup`` and through the
    hierarchy's inlined L1 probe alike."""
    l1 = make_l1()                                 # 8 sets
    l2 = Cache("L2", 4, 2, 64, latency=9)          # 32 sets
    hierarchy = CacheHierarchy(l1, l2, memory_latency=50)
    assert l1._sets == [None] * l1.num_sets
    assert l2._sets == [None] * l2.num_sets

    def touched(cache):
        return [i for i, ways in enumerate(cache._sets) if ways is not None]

    l1.lookup(0x0)                                 # L1 set 0
    l1.lookup(0x40)                                # L1 set 1
    l1.lookup(0x0)                                 # a hit allocates nothing
    assert touched(l1) == [0, 1]
    hierarchy.access(3 * 64)                       # L1 set 3, L2 set 3
    hierarchy.access(8 * 64)                       # L1 set 0, L2 set 8
    hierarchy.access(3 * 64)                       # MRU hit
    assert touched(l1) == [0, 1, 3]
    assert touched(l2) == [3, 8]
    assert l1._sets[0] == [1, 0]                   # MRU first, both tags


def test_miss_rate_accounting():
    c = make_l1()
    c.lookup(0x0)
    c.lookup(0x0)
    c.lookup(0x0)
    assert c.accesses == 3
    assert c.hits == 2
    assert c.misses == 1


def test_hierarchy_latencies():
    l1 = Cache("L1", 1, 2, 64, latency=2)
    l2 = Cache("L2", 16, 8, 64, latency=20)
    h = CacheHierarchy(l1, l2, memory_latency=120)
    assert h.access(0x0) == 2 + 20 + 120   # cold: miss everywhere
    assert h.access(0x0) == 2              # L1 hit
    # Evict from tiny L1 but not from L2.
    stride = l1.num_sets * 64
    for i in range(1, 4):
        h.access(i * stride)
    assert h.access(0x0) == 2 + 20         # L1 miss, L2 hit


def test_working_set_larger_than_cache_thrashes():
    c = Cache("L1", size_kb=1, assoc=2, block_bytes=64, latency=2)
    blocks = 64  # 4KB working set in a 1KB cache
    for _ in range(3):
        for i in range(blocks):
            c.lookup(i * 64)
    assert c.misses > 0.9 * c.accesses


@given(addrs=st.lists(st.integers(0, 63).map(lambda word: word * 28),
                      max_size=200))
@settings(max_examples=60, deadline=None)
def test_hierarchy_access_matches_composed_lookups(addrs):
    """``CacheHierarchy.access`` inlines the L1 probe; it must behave
    exactly as ``l1.lookup`` falling through to ``l2.lookup``."""
    def caches():
        return Cache("L1", 1, 2, 64, latency=2), Cache("L2", 2, 2, 64, 9)

    l1, l2 = caches()
    hierarchy = CacheHierarchy(l1, l2, memory_latency=50)
    ref_l1, ref_l2 = caches()

    def composed(addr):
        if ref_l1.lookup(addr):
            return ref_l1.latency
        if ref_l2.lookup(addr):
            return ref_l1.latency + ref_l2.latency
        return ref_l1.latency + ref_l2.latency + 50

    for addr in addrs:
        assert hierarchy.access(addr) == composed(addr)
    for cache, ref in ((l1, ref_l1), (l2, ref_l2)):
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert cache._sets == ref._sets


def test_core_config_rejects_a_free_l2():
    """Miss accounting counts any latency above the L1's as an L1 miss,
    which a zero-cycle L2 hit would break."""
    with pytest.raises(ValueError):
        CoreConfig(l2_latency=0)
