"""Register rename/readiness scoreboard.

The timing pass processes instructions in program order, so renaming
reduces to tracking, per architectural register, the completion cycle of
its latest producer.  The model needs more physical than architectural
registers to rename at all; a configuration without them fails loudly.
"""

from __future__ import annotations


class RegisterScoreboard:
    """Per-architectural-register readiness tracking."""

    def __init__(self, phys_registers: int, arch_registers: int = 64) -> None:
        if phys_registers <= arch_registers:
            raise ValueError(
                "need more physical than architectural registers to rename"
            )
        self._ready: dict[str, int] = {}
        self.renames = 0

    def ready_cycle(self, reg: str) -> int:
        """Cycle at which ``reg``'s current value is available (0 if from
        architectural state)."""
        return self._ready.get(reg, 0)

    def define(self, reg: str, complete_cycle: int) -> None:
        """Record a new producer for ``reg`` (a rename + eventual write)."""
        if reg == "r0":
            return
        self.renames += 1
        self._ready[reg] = complete_cycle
