"""Core configuration (the paper's Table 4)."""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_fu_pools() -> dict[str, int]:
    # "4 Int ALUs; 1 Int MUL/DIV; 4 Floating ALUs; 1 Floating MUL/DIV;
    #  2 LDST units" — branches execute on the integer ALUs, and the MUL
    #  and DIV op classes share their respective single unit.
    return {
        "int_alu": 4,
        "int_muldiv": 1,
        "fp_alu": 4,
        "fp_muldiv": 1,
        "ldst": 2,
    }


@dataclass
class CoreConfig:
    """Host OOO pipeline parameters (defaults = paper Table 4)."""

    # Widths.
    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    # Window sizes.
    rob_entries: int = 192
    phys_registers: int = 256
    rs_entries: int = 60
    load_queue: int = 128
    store_queue: int = 128

    # Front end.
    frontend_depth: int = 4          # fetch -> dispatch stages
    btb_entries: int = 4096
    ras_entries: int = 16
    predictor_bits: int = 12         # gshare history/index bits
    predictor_kind: str = "tournament"   # | "bimodal" | "gshare"
    mispredict_redirect: int = 2     # extra bubbles beyond resolve latency
    btb_miss_penalty: int = 1

    # Memory system (latencies are load-to-use, in cycles).
    l1i_kb: int = 64
    l1i_assoc: int = 2
    l1i_latency: int = 2
    l1d_kb: int = 64
    l1d_assoc: int = 2
    l1d_latency: int = 2
    l2_kb: int = 2048
    l2_assoc: int = 8
    l2_latency: int = 20
    block_bytes: int = 64
    memory_latency: int = 120
    store_forward_latency: int = 2

    # Squash cost for memory-order violations (flush + refetch).
    violation_squash_penalty: int = 12

    # Functional-unit mix (pool name -> unit count).
    fu_pools: dict[str, int] = field(default_factory=_default_fu_pools)

    # Memory dependence predictor (Store Sets).
    ssit_entries: int = 1024

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.issue_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be positive")
        if self.rob_entries < self.issue_width:
            raise ValueError("ROB must hold at least one issue group")
        if self.l2_latency < 1:
            # Miss accounting counts any latency above an L1's as a miss.
            raise ValueError("L2 latency must be positive")
