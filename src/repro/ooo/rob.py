"""Reorder-buffer occupancy model.

The timing pass processes instructions in program order, so ROB occupancy
reduces to a ring of the last N commit cycles: a new dispatch must wait for
the instruction N places back to have committed.  The ring also tracks the
youngest in-flight commit time, which `drain` (used when a DynaSpAM mapping
phase starts) needs.
"""

from __future__ import annotations


class ReorderBufferModel:
    """Capacity model of an in-order-commit ROB."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("ROB needs at least one entry")
        self.entries = entries
        self._commit_ring: list[int] = [0] * entries
        self._head = 0
        self._count = 0
        self.last_commit_cycle = 0

    def dispatch_ready_cycle(self) -> int:
        """Earliest cycle a new instruction may dispatch (entry free)."""
        if self._count < self.entries:
            return 0
        # Entry frees the cycle after its occupant commits.
        return self._commit_ring[self._head] + 1

    def push(self, commit_cycle: int) -> None:
        """Record a dispatched instruction's (eventual) commit cycle."""
        self._commit_ring[self._head] = commit_cycle
        self._head = (self._head + 1) % self.entries
        if self._count < self.entries:
            self._count += 1
        if commit_cycle > self.last_commit_cycle:
            self.last_commit_cycle = commit_cycle

    def drain_cycle(self) -> int:
        """Cycle at which everything currently in flight has committed."""
        return self.last_commit_cycle
