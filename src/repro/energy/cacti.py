"""Small analytical SRAM model (CACTI stand-in).

The paper sizes the configuration cache with CACTI and reports 0.003 mm²;
this model reproduces that order of magnitude from bit count alone, with a
fixed per-bit cell area plus peripheral overhead.  Access energies are
not derived here: the energy model charges configuration-cache reads and
writes from ``repro.energy.constants``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Effective area per SRAM bit at a 32 nm-class node, including
#: decoder/sense-amp overhead amortized over the array (µm²/bit).
BIT_AREA_UM2 = 1.1
#: Fixed peripheral overhead (µm²).
PERIPHERAL_UM2 = 180.0


@dataclass(frozen=True)
class SramModel:
    """One small SRAM array (e.g. the configuration cache)."""

    entries: int = 16
    block_bytes: int = 16

    @property
    def total_bits(self) -> int:
        return self.entries * self.block_bytes * 8

    @property
    def area_um2(self) -> float:
        return self.total_bits * BIT_AREA_UM2 + PERIPHERAL_UM2

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6
