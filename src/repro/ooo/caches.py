"""Set-associative cache hierarchy.

Latency-oriented model: an access returns the load-to-use latency implied by
the level it hits in, and updates LRU/allocation state.  Bandwidth and MSHR
occupancy are not modeled (the paper's results do not hinge on them; the
kernels' working sets determine hit rates, which this model captures).
"""

from __future__ import annotations


class Cache:
    """One set-associative, write-allocate, LRU cache level."""

    def __init__(
        self,
        name: str,
        size_kb: int,
        assoc: int,
        block_bytes: int,
        latency: int,
    ) -> None:
        size_bytes = size_kb * 1024
        num_blocks = size_bytes // block_bytes
        self.name = name
        self.assoc = assoc
        self.num_sets = max(1, num_blocks // assoc)
        self.block_bytes = block_bytes
        self.latency = latency
        # Per-set list of tags in LRU order (index 0 = most recent),
        # allocated by the set's first miss: a short run touches few of
        # the sets, and building thousands of empty lists would be most
        # of a machine's construction.  ``None`` = never touched.
        self._sets: list[list[int] | None] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        block = addr // self.block_bytes
        return block % self.num_sets, block // self.num_sets

    def lookup(self, addr: int) -> bool:
        """Access the cache; returns True on hit.  Misses allocate."""
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if ways is None:
            self._sets[set_index] = [tag]
        elif tag in ways:
            self.hits += 1
            ways.remove(tag)
            ways.insert(0, tag)
            return True
        else:
            ways.insert(0, tag)
            if len(ways) > self.assoc:
                ways.pop()
        self.misses += 1
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CacheHierarchy:
    """L1 (I or D) backed by a shared L2 backed by main memory."""

    def __init__(self, l1: Cache, l2: Cache, memory_latency: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.memory_latency = memory_latency

    def access(self, addr: int) -> int:
        """Access ``addr``; return the total load-to-use latency.

        Equivalent to ``l1.lookup(addr)`` falling through to
        ``l2.lookup(addr)``, with the L1 probe inlined: every host and
        fabric data access lands here, and an MRU hit returns before the
        set's LRU list is touched (moving the head to the head is a no-op).
        A set's list is never empty once allocated, so ``ways`` is falsy
        only for a set no access has touched yet.
        """
        l1 = self.l1
        block = addr // l1.block_bytes
        num_sets = l1.num_sets
        set_index = block % num_sets
        ways = l1._sets[set_index]
        tag = block // num_sets
        if ways and ways[0] == tag:
            l1.hits += 1
            return l1.latency
        if ways is None:
            l1._sets[set_index] = [tag]
        elif tag in ways:
            l1.hits += 1
            ways.remove(tag)
            ways.insert(0, tag)
            return l1.latency
        else:
            ways.insert(0, tag)
            if len(ways) > l1.assoc:
                ways.pop()
        l1.misses += 1
        if self.l2.lookup(addr):
            return l1.latency + self.l2.latency
        return l1.latency + self.l2.latency + self.memory_latency
