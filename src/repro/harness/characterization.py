"""Workload characterization table (a companion to the paper's Table 3).

Summarizes each benchmark analog's dynamic properties — instruction mix,
branch behaviour, memory intensity, footprint — the quantities that drive
trace detection quality and fabric utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.reporting import format_table
from repro.workloads import ALL_ABBREVS, generate_trace
from repro.workloads.characterize import characterize, WorkloadProfile


@dataclass
class CharacterizationResult:
    scale: float
    profiles: dict[str, WorkloadProfile] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for abbrev, p in self.profiles.items():
            fp = (p.pool_mix.get("fp_alu", 0.0)
                  + p.pool_mix.get("fp_muldiv", 0.0))
            rows.append([
                abbrev,
                p.dynamic_instructions,
                f"{p.branch_fraction:.1%}",
                f"{p.taken_fraction:.0%}",
                f"{p.memory_fraction:.1%}",
                f"{fp:.1%}",
                round(p.mean_block_run, 1),
                p.unique_pcs,
                p.unique_blocks_touched,
            ])
        return format_table(
            ["Benchmark", "dyn insts", "branches", "taken", "memory",
             "FP ops", "mean run", "static PCs", "data blocks"],
            rows,
            title="Workload characterization (companion to Table 3)",
        )


def characterization(scale: float = 1.0) -> CharacterizationResult:
    result = CharacterizationResult(scale)
    for abbrev in ALL_ABBREVS:
        trace = generate_trace(abbrev, scale).trace
        result.profiles[abbrev] = characterize(abbrev, trace)
    return result
