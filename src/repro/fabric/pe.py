"""Processing elements of the fabric.

Each PE holds one functional unit (of some pool kind), a set of pass
registers, and input multiplexers (paper Figure 4).  Input-port capacity is
heterogeneous: first-stripe PEs can receive two live-ins per invocation,
deeper PEs only one (via the global bus) — the resource heterogeneity the
resource-aware mapper must respect (paper Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import FU_PIPELINED, OpClass


@dataclass(frozen=True)
class PE:
    """One processing element of the fabric grid."""

    stripe: int
    index: int            # position within the stripe
    pool: str             # functional-unit kind ("int_alu", "ldst", ...)
    input_ports: int      # live-in operands deliverable per invocation


def pe_busy(opclass: OpClass, latency: int) -> int:
    """Cycles per invocation a PE is busy executing ``opclass`` (the
    bound on pipelined initiation).

    Pipelined units are busy one cycle; unpipelined dividers block for
    their full latency; LDST PEs are busy one cycle because the load
    reservation buffer holds in-flight loads (paper Section 3.2).
    """
    if opclass in (OpClass.LOAD, OpClass.STORE):
        return 1
    return 1 if FU_PIPELINED[opclass] else latency
