"""Pipeline statistics and energy-relevant event counters."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class PipelineStats:
    """Event counts accumulated by a timing run.

    The energy model (``repro.energy``) multiplies these counts by
    per-event energies; the Figure 9 component categories note which
    counters feed which category.
    """

    cycles: int = 0
    instructions: int = 0

    # Front end (Figure 9 "Fetch").
    fetches: int = 0
    wrongpath_fetches: int = 0   # estimated wrong-path work after mispredicts
    icache_accesses: int = 0
    icache_misses: int = 0
    predictor_lookups: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0

    # Rename (Figure 9 "Rename").
    renames: int = 0

    # Instruction scheduling (Figure 9 "InstSchedule").
    dispatches: int = 0
    wakeups: int = 0
    selections: int = 0

    # Execution (Figure 9 "Execution").
    int_alu_ops: int = 0
    int_mul_ops: int = 0
    int_div_ops: int = 0
    fp_alu_ops: int = 0
    fp_mul_ops: int = 0
    fp_div_ops: int = 0

    # Datapath: register file + bypass network (Figure 9 "Datapath").
    regfile_reads: int = 0
    regfile_writes: int = 0
    bypass_transfers: int = 0

    # Memory system (Figure 9 "Memory").
    loads: int = 0
    stores: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    store_forwards: int = 0
    memory_violations: int = 0

    # Commit.
    commits: int = 0
    rob_writes: int = 0

    # DynaSpAM-specific (zero on the baseline).
    mapping_instructions: int = 0
    offloaded_instructions: int = 0
    fabric_invocations: int = 0
    fabric_configurations: int = 0
    fabric_fu_ops: int = 0
    fabric_int_alu_ops: int = 0
    fabric_int_muldiv_ops: int = 0
    fabric_fp_alu_ops: int = 0
    fabric_fp_muldiv_ops: int = 0
    fabric_ldst_ops: int = 0
    fabric_active_pe_cycles: int = 0
    fabric_datapath_transfers: int = 0
    fabric_fifo_ops: int = 0
    fabric_squashes: int = 0
    config_cache_reads: int = 0
    config_cache_writes: int = 0
    drain_cycles: int = 0

    # Top-down cycle accounting (no energy cost; ``repro analyze``).
    # Exclusive, conserved buckets charged along the commit timeline:
    # every advance of the commit point is charged to exactly one bucket,
    # so their sum equals ``cycles`` on every run (repro.obs.accounting).
    cycles_host: int = 0            # healthy host execution / commit throughput
    cycles_frontend: int = 0        # I-cache misses and BTB-miss fetch bubbles
    cycles_drain: int = 0           # back-end drain before a mapping phase
    cycles_mapping: int = 0         # mapper occupying the issue unit
    cycles_offload: int = 0         # commit waiting on fabric invocations
    cycles_squash_branch: int = 0   # mispredict redirects + branch squashes
    cycles_squash_memory: int = 0   # memory-order violation squash recovery

    def merge(self, other: "PipelineStats") -> None:
        """Accumulate another stats record into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
