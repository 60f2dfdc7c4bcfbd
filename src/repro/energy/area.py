"""Fabric area model (Table 6).

Module areas come from the paper's own Table 6 (OpenSparc T1 components
synthesized at 32 nm with Synopsys Design Compiler); the fabric-area
calculator composes them per the Table 4 geometry.  With 8 stripes the
composition lands at the paper's reported ~2.9 mm².
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.config import FabricConfig

#: Paper Table 6, µm² at 32 nm.
MODULE_AREAS_UM2: dict[str, float] = {
    "sparc_exu_alu": 4660.0,
    "sparc_mul_top": 47752.0,
    "sparc_exu_div": 11227.0,
    "fpu_add": 34370.0,
    "fpu_mul": 62488.0,
    "fpu_div": 13769.0,
    "data_path": 4717.0,
    "fifo": 848.0,
}

#: The paper's headline fabric area (8 stripes).
PAPER_FABRIC_MM2 = 2.9
#: The paper's configuration cache area from CACTI.
PAPER_CONFIG_CACHE_MM2 = 0.003
#: Reference point the paper quotes: a 2-core AMD Bulldozer at this node.
BULLDOZER_2CORE_MM2 = 30.0


@dataclass
class FabricAreaModel:
    """Compose Table 6 modules into a fabric area estimate."""

    config: FabricConfig = field(default_factory=FabricConfig)
    modules: dict[str, float] = field(
        default_factory=lambda: dict(MODULE_AREAS_UM2)
    )

    def stripe_area_um2(self, stripe: int = 0) -> float:
        """One stripe: its execution-unit mix plus datapath blocks."""
        m = self.modules
        pools = self.config.pools_for(stripe)
        area = 0.0
        area += pools["int_alu"] * m["sparc_exu_alu"]
        area += pools["int_muldiv"] * (m["sparc_mul_top"] + m["sparc_exu_div"])
        area += pools["fp_alu"] * m["fpu_add"]
        area += pools["fp_muldiv"] * (m["fpu_mul"] + m["fpu_div"])
        # LDST units are address-generation datapaths (ALU-class logic).
        area += pools["ldst"] * m["sparc_exu_alu"]
        # One datapath block (pass registers + multiplexers) per PE.
        area += self.config.pes_in_stripe(stripe) * m["data_path"]
        return area

    def fifo_area_um2(self) -> float:
        count = self.config.livein_fifos + self.config.liveout_fifos
        return count * self.modules["fifo"]

    def fabric_area_mm2(self, num_stripes: int | None = None) -> float:
        stripes = num_stripes if num_stripes is not None else self.config.num_stripes
        if self.config.per_stripe_pools is not None:
            total = sum(
                self.stripe_area_um2(s)
                for s in range(min(stripes, self.config.num_stripes))
            )
        else:
            total = stripes * self.stripe_area_um2()
        total += self.fifo_area_um2()
        return total / 1e6
