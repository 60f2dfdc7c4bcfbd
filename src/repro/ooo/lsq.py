"""Load/store queue model: capacity, forwarding, and alias search.

The store queue keeps a bounded window of recent stores with their address
and data timing so later loads can (a) detect aliasing for memory-order
violation checks and (b) forward data.  Word-granularity aliasing matches
the word-granularity ISA.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class StoreRecord:
    """An in-flight (or recently retired) store."""

    seq: int
    pc: int
    addr: int
    addr_ready: int      # cycle the address is known (issue)
    data_ready: int      # cycle the store data is available for forwarding
    commit: int = 0


class StoreQueueModel:
    """Bounded window of stores, searchable by address."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("store queue needs at least one entry")
        self.entries = entries
        # maxlen evicts the oldest record on append — O(1), where a list
        # with pop(0) pays O(window) per store.
        self._window: deque[StoreRecord] = deque(maxlen=entries)
        # addr -> youngest windowed store at that address.  Invariant:
        # holds exactly the youngest same-address record of the window
        # (push overwrites; eviction deletes only when the evictee still
        # owns its slot, which implies no other same-address record
        # remains).  Turns the common alias probe into one dict lookup.
        self._by_addr: dict[int, StoreRecord] = {}
        # Capacity ring: commit cycles of stores `entries` places back.
        self._commit_ring: list[int] = [0] * entries
        self._head = 0
        self._count = 0

    def dispatch_ready_cycle(self) -> int:
        if self._count < self.entries:
            return 0
        return self._commit_ring[self._head] + 1

    def push(self, record: StoreRecord) -> None:
        window = self._window
        if len(window) == self.entries:
            evicted = window[0]
            if self._by_addr.get(evicted.addr) is evicted:
                del self._by_addr[evicted.addr]
        window.append(record)
        self._by_addr[record.addr] = record
        self._commit_ring[self._head] = record.commit
        self._head = (self._head + 1) % self.entries
        if self._count < self.entries:
            self._count += 1

    def youngest_alias(self, addr: int, before_seq: int) -> StoreRecord | None:
        """Youngest store older than ``before_seq`` at the same address."""
        record = self._by_addr.get(addr)
        if record is None:
            # The index covers every windowed address: no entry, no alias.
            return None
        if record.seq < before_seq:
            return record
        # The youngest same-address store is too young; an older one may
        # still qualify (only reachable with non-monotone probe seqs).
        for record in reversed(self._window):
            if record.seq < before_seq and record.addr == addr:
                return record
        return None

    def youngest_older(self, before_seq: int) -> StoreRecord | None:
        """Youngest store older than ``before_seq`` regardless of address
        (a non-speculative offload orders its stores behind it)."""
        for record in reversed(self._window):
            if record.seq < before_seq:
                return record
        return None

    def __len__(self) -> int:
        return len(self._window)


class LoadQueueModel:
    """Capacity-only model of the load queue."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("load queue needs at least one entry")
        self.entries = entries
        self._complete_ring: list[int] = [0] * entries
        self._head = 0
        self._count = 0

    def dispatch_ready_cycle(self) -> int:
        if self._count < self.entries:
            return 0
        return self._complete_ring[self._head] + 1

    def push(self, complete_cycle: int) -> None:
        self._complete_ring[self._head] = complete_cycle
        self._head = (self._head + 1) % self.entries
        if self._count < self.entries:
            self._count += 1
