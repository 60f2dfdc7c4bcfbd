"""Fabric geometry configuration (the fabric rows of Table 4)."""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_stripe_pools() -> dict[str, int]:
    # "same execution units as OOO per strip" (Table 4).
    return {
        "int_alu": 4,
        "int_muldiv": 1,
        "fp_alu": 4,
        "fp_muldiv": 1,
        "ldst": 2,
    }


@dataclass
class FabricConfig:
    """Geometry and timing parameters of one spatial fabric.

    ``per_stripe_pools`` optionally overrides ``stripe_pools`` with a
    different pool mix per stripe — Figure 5's comparison fabrics (CCA's
    triangle of shrinking rows, for instance) are heterogeneous in depth.
    """

    num_stripes: int = 16
    stripe_pools: dict[str, int] = field(default_factory=_default_stripe_pools)
    per_stripe_pools: tuple[dict[str, int], ...] | None = None
    pass_regs_per_fu: int = 3
    fifo_depth: int = 8              # "8-entry buffers"
    livein_fifos: int = 16
    liveout_fifos: int = 16
    global_bus_latency: int = 1      # live-in delivery / inter-invocation forward
    stripe0_input_ports: int = 2     # first-stripe PEs take two live-ins
    deep_input_ports: int = 1        # deeper PEs receive one live-in via the bus
    reconfig_cycles_per_stripe: int = 2

    def __post_init__(self) -> None:
        if self.num_stripes < 1:
            raise ValueError("fabric needs at least one stripe")
        if self.fifo_depth < 1:
            raise ValueError("FIFOs need at least one entry")
        if (self.per_stripe_pools is not None
                and len(self.per_stripe_pools) != self.num_stripes):
            raise ValueError(
                "per_stripe_pools must list one pool mix per stripe"
            )

    def pools_for(self, stripe: int) -> dict[str, int]:
        """Pool mix of one stripe."""
        if self.per_stripe_pools is not None:
            return self.per_stripe_pools[stripe]
        return self.stripe_pools

    def pes_in_stripe(self, stripe: int) -> int:
        return sum(self.pools_for(stripe).values())

    def channels_in_stripe(self, stripe: int) -> int:
        """Pass-register (routing channel) capacity of one stripe."""
        return self.pass_regs_per_fu * self.pes_in_stripe(stripe)

    @property
    def pes_per_stripe(self) -> int:
        """PE count of a (homogeneous) stripe; max across heterogeneous."""
        if self.per_stripe_pools is not None:
            return max(sum(pools.values()) for pools in self.per_stripe_pools)
        return sum(self.stripe_pools.values())

    def reconfig_latency(self, stripes_used: int) -> int:
        """Cycles to load a configuration touching ``stripes_used`` stripes."""
        return self.reconfig_cycles_per_stripe * max(1, stripes_used)


def cca_like(num_rows: int = 4, top_width: int = 6) -> FabricConfig:
    """A CCA-style comparison fabric (Figure 5a).

    A triangle of integer rows shrinking with depth, inputs only at the
    top row, and *no pass registers*: a value is consumable only by the
    row directly below its producer ("data used in one row cannot be
    reused in the same row", and CCA has no multi-row bypass paths).
    CCA executes integer subgraphs only — no FP units, no memory ports.
    """
    rows = []
    for row in range(num_rows):
        width = max(1, top_width - row)
        rows.append({
            "int_alu": width,
            "int_muldiv": 1,
            "fp_alu": 1,     # minimum one PE per pool keeps the
            "fp_muldiv": 1,  # one-to-one FU mapping well defined; CCA
            "ldst": 1,       # itself would reject these op classes
        })
    return FabricConfig(
        num_stripes=num_rows,
        per_stripe_pools=tuple(rows),
        pass_regs_per_fu=0,
        stripe0_input_ports=2,
        deep_input_ports=1,
    )
