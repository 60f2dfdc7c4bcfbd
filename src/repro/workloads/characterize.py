"""Workload characterization: instruction mix, branch and memory behavior.

The paper's future-work paragraph proposes "adjust[ing] the number of
functional units according to instruction type distributions of the
benchmarks"; this module computes those distributions (plus the branch and
locality properties that drive trace detection quality), and the harness
exposes them as a characterization table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import OpClass
from repro.ooo.fus import POOL_OF


@dataclass
class WorkloadProfile:
    """Static-and-dynamic characterization of one benchmark trace."""

    name: str
    dynamic_instructions: int = 0
    pool_mix: dict[str, float] = field(default_factory=dict)
    class_mix: dict[str, float] = field(default_factory=dict)
    branch_fraction: float = 0.0
    taken_fraction: float = 0.0
    memory_fraction: float = 0.0
    load_fraction: float = 0.0
    store_fraction: float = 0.0
    unique_pcs: int = 0
    unique_blocks_touched: int = 0
    mean_block_run: float = 0.0   # consecutive instructions between branches


def characterize(name: str, trace: list[DynamicInstruction],
                 block_bytes: int = 64) -> WorkloadProfile:
    """Profile a dynamic trace."""
    profile = WorkloadProfile(name=name, dynamic_instructions=len(trace))
    if not trace:
        return profile

    pools = Counter()
    classes = Counter()
    pcs = set()
    data_blocks = set()
    branches = taken = loads = stores = 0
    run_lengths = []
    current_run = 0

    for dyn in trace:
        pcs.add(dyn.pc)
        pools[POOL_OF[dyn.opclass]] += 1
        classes[dyn.opclass.value] += 1
        current_run += 1
        if dyn.is_branch:
            branches += 1
            taken += bool(dyn.taken)
            run_lengths.append(current_run)
            current_run = 0
        if dyn.is_load:
            loads += 1
        if dyn.is_store:
            stores += 1
        if dyn.addr is not None:
            data_blocks.add(dyn.addr // block_bytes)

    total = len(trace)
    profile.pool_mix = {pool: count / total for pool, count in pools.items()}
    profile.class_mix = {cls: count / total for cls, count in classes.items()}
    profile.branch_fraction = branches / total
    profile.taken_fraction = taken / branches if branches else 0.0
    profile.memory_fraction = (loads + stores) / total
    profile.load_fraction = loads / total
    profile.store_fraction = stores / total
    profile.unique_pcs = len(pcs)
    profile.unique_blocks_touched = len(data_blocks)
    profile.mean_block_run = (
        sum(run_lengths) / len(run_lengths) if run_lengths else float(total)
    )
    return profile


def pool_demand(profile: WorkloadProfile) -> dict[str, float]:
    """Relative per-pool demand, normalized so int_alu = 1.0.

    The tuner sizes stripe pools proportionally to this demand vector.
    """
    base = profile.pool_mix.get("int_alu", 0.0) or 1e-9
    return {
        pool: profile.pool_mix.get(pool, 0.0) / base
        for pool in ("int_alu", "int_muldiv", "fp_alu", "fp_muldiv", "ldst")
    }
