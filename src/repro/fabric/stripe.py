"""Stripes: rows of PEs sharing an interconnect and pass-register file."""

from __future__ import annotations

from repro.fabric.config import FabricConfig
from repro.fabric.pe import PE


class Stripe:
    """One fabric stripe: an array of PEs plus pass registers."""

    def __init__(self, index: int, config: FabricConfig) -> None:
        self.index = index
        ports = (
            config.stripe0_input_ports if index == 0 else config.deep_input_ports
        )
        self.pes: list[PE] = []
        pe_index = 0
        for pool, count in config.pools_for(index).items():
            for _ in range(count):
                self.pes.append(PE(index, pe_index, pool, ports))
                pe_index += 1
        self.pass_registers = config.channels_in_stripe(index)

    def __iter__(self):
        return iter(self.pes)


def build_stripes(config: FabricConfig) -> list[Stripe]:
    """Construct the full stripe array for a fabric."""
    return [Stripe(i, config) for i in range(config.num_stripes)]
