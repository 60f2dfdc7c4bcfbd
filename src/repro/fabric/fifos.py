"""Live-in / live-out FIFO occupancy model.

Separate FIFO entries represent separate trace invocations (paper
Section 3.2), so the FIFO depth bounds how many invocations may be in
flight — the pipelining backstop the fabric engine enforces.
"""

from __future__ import annotations


class FifoModel:
    """Bounded in-flight window keyed by invocation completion times."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("FIFO depth must be positive")
        self.depth = depth
        self._complete_ring: list[int] = [0] * depth
        self._head = 0
        self._count = 0

    def admit_ready_cycle(self) -> int:
        """Earliest cycle a new invocation may enter (an entry is free)."""
        if self._count < self.depth:
            return 0
        return self._complete_ring[self._head] + 1

    def push(self, complete_cycle: int) -> None:
        self._complete_ring[self._head] = complete_cycle
        self._head = (self._head + 1) % self.depth
        if self._count < self.depth:
            self._count += 1
