"""One driver per evaluation table and figure.

Every function returns a structured result (so benchmarks and tests can
assert on it) and can render itself as text.  The mapping from experiment
to paper artifact is the DESIGN.md experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy import EnergyModel, FabricAreaModel, FIGURE9_COMPONENTS, SramModel
from repro.energy.area import MODULE_AREAS_UM2, PAPER_CONFIG_CACHE_MM2
from repro.harness.parallel import warm_cache
from repro.harness.reporting import format_bars, format_stacked, format_table
from repro.harness.runner import (
    baseline_spec,
    dynaspam_spec,
    geomean,
    run_baseline,
    run_dynaspam,
)
from repro.ooo.config import CoreConfig
from repro.workloads import ALL_ABBREVS, BENCHMARKS


# ---------------------------------------------------------------------------
# Table 3 / Table 4 (descriptive)
# ---------------------------------------------------------------------------
def table3_benchmarks() -> str:
    rows = [
        [b.name, b.abbrev, b.domain, b.kernel, b.description]
        for b in (BENCHMARKS[a] for a in ALL_ABBREVS)
    ]
    return format_table(
        ["Benchmark Name", "Abbrev", "Domain", "Kernel", "Description"],
        rows,
        title="Table 3: Programs tested from the Rodinia Benchmark Suite",
    )


def table4_parameters() -> str:
    cfg = CoreConfig()
    rows = [
        ["Fetch Unit", f"{cfg.ras_entries}-entry return stack; "
                       f"{cfg.btb_entries}-entry BTB branch predictor"],
        ["Caches", f"{cfg.l1i_kb}KB {cfg.l1i_assoc}-way {cfg.l1i_latency}-cycle "
                   f"ICache; {cfg.l1d_kb}KB L1D; {cfg.l2_kb // 1024}MB "
                   f"{cfg.l2_assoc}-way {cfg.l2_latency}-cycle L2"],
        ["Window Size", f"{cfg.rob_entries}-entry ROB; {cfg.phys_registers}-entry "
                        f"physical RF; {cfg.issue_width}-wide issue"],
        ["Execution Units", f"{cfg.fu_pools['int_alu']} Int ALUs; "
                            f"{cfg.fu_pools['int_muldiv']} Int MUL/DIV; "
                            f"{cfg.fu_pools['fp_alu']} FP ALUs; "
                            f"{cfg.fu_pools['fp_muldiv']} FP MUL/DIV; "
                            f"{cfg.fu_pools['ldst']} LDST units"],
        ["Memory Unit", f"{cfg.load_queue}-entry load queue; "
                        f"{cfg.store_queue}-entry store queue"],
        ["Fabric", "8-entry buffers; same execution units as OOO per stripe; "
                   "16 stripes; 3 pass regs per FU; 16 live-in/out FIFOs"],
        ["Config. Cache", "16-entry, 16-byte blocks, 3-bit saturating "
                          "counters, threshold 4"],
    ]
    return format_table(["Parameter", "Setting"], rows,
                        title="Table 4: Evaluation system parameters")


def table7_related_work() -> str:
    """Table 7: DynaSpAM vs other in-core reconfigurable engines.

    A qualitative feature matrix (from the paper's related-work section);
    the quantitative side of the CCA comparison is
    ``benchmarks/bench_ablation_geometry.py``.
    """
    rows = [
        ["PRISC / Chimaera", "no", "no", "no", "no", "no", "Subgraph"],
        ["DySER", "no", "no", "no", "yes", "yes", "Subgraph"],
        ["ADRES / PipeRench", "no", "no", "no", "yes", "yes", "Kernel"],
        ["BERET", "partial", "no", "no", "yes", "yes", "Subgraph"],
        ["SGMF", "no", "no", "no", "yes", "yes", "Kernel"],
        ["Tartan / WaveScalar", "no", "no", "no", "yes", "yes", "Whole Program"],
        ["CCA", "yes", "yes", "no", "no", "no", "Subgraph"],
        ["DynaSpAM", "yes", "yes", "yes", "yes", "yes", "Kernel"],
    ]
    return format_table(
        ["Engine", "No compiler P&R", "Dynamic mapping",
         "Resource-aware sched.", "Pipelined exec.", "Dataflow",
         "Target range"],
        rows,
        title="Table 7: comparison with other in-core reconfigurable "
              "computation engines",
    )


# ---------------------------------------------------------------------------
# Figure 7: trace coverage vs trace length
# ---------------------------------------------------------------------------
@dataclass
class CoverageResult:
    scale: float
    lengths: tuple[int, ...]
    #: coverage[abbrev][length] = {"host": f, "mapping": f, "fabric": f}
    coverage: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)

    def render(self) -> str:
        out = ["Figure 7: dynamic-instruction coverage by venue "
               f"(trace lengths {list(self.lengths)})"]
        for abbrev in self.coverage:
            rows = {
                f"len {length}": parts
                for length, parts in self.coverage[abbrev].items()
            }
            out.append(format_stacked(rows, title=f"\n{abbrev}"))
        return "\n".join(out)


def figure7_coverage(
    scale: float = 1.0, lengths: tuple[int, ...] = (16, 24, 32, 40),
    jobs: int | None = None,
) -> CoverageResult:
    warm_cache(
        (dynaspam_spec(abbrev, scale, trace_length=length)
         for abbrev in ALL_ABBREVS for length in lengths),
        jobs,
    )
    result = CoverageResult(scale, tuple(lengths))
    for abbrev in ALL_ABBREVS:
        per_length = {}
        for length in lengths:
            run = run_dynaspam(abbrev, scale, trace_length=length)
            per_length[length] = run.coverage
        result.coverage[abbrev] = per_length
    return result


# ---------------------------------------------------------------------------
# Table 5: detected traces and configuration lifetime
# ---------------------------------------------------------------------------
@dataclass
class LifetimeResult:
    scale: float
    fabric_counts: tuple[int, ...]
    rows: dict[str, dict] = field(default_factory=dict)
    bfs_eight_fabrics: float = 0.0

    def render(self) -> str:
        headers = (["Benchmark", "Mapped", "Offloaded"]
                   + [f"{n} fabric{'s' if n > 1 else ''}"
                      for n in self.fabric_counts])
        table_rows = []
        for abbrev, row in self.rows.items():
            table_rows.append(
                [abbrev, row["mapped"], row["offloaded"]]
                + [round(row["lifetime"][n], 1) for n in self.fabric_counts]
            )
        text = format_table(
            headers, table_rows,
            title="Table 5: Detected traces and average configuration "
                  "lifetime (invocations)",
        )
        return text + (
            f"\nBFS with 8 fabrics: {self.bfs_eight_fabrics:.1f} "
            "invocations per configuration"
        )


def table5_lifetime(
    scale: float = 1.0, fabric_counts: tuple[int, ...] = (1, 2, 4),
    jobs: int | None = None,
) -> LifetimeResult:
    warm_cache(
        [dynaspam_spec(abbrev, scale, num_fabrics=count)
         for abbrev in ALL_ABBREVS for count in fabric_counts]
        + [dynaspam_spec("BFS", scale, num_fabrics=8)],
        jobs,
    )
    result = LifetimeResult(scale, tuple(fabric_counts))
    for abbrev in ALL_ABBREVS:
        lifetime = {}
        mapped = offloaded = 0
        for count in fabric_counts:
            run = run_dynaspam(abbrev, scale, num_fabrics=count)
            lifetime[count] = run.mean_lifetime
            if count == 1:
                mapped = run.mapped_traces
                offloaded = run.offloaded_traces
        result.rows[abbrev] = {
            "mapped": mapped,
            "offloaded": offloaded,
            "lifetime": lifetime,
        }
    bfs8 = run_dynaspam("BFS", scale, num_fabrics=8)
    result.bfs_eight_fabrics = bfs8.mean_lifetime
    return result


# ---------------------------------------------------------------------------
# Figure 8: performance comparison
# ---------------------------------------------------------------------------
@dataclass
class PerformanceResult:
    scale: float
    #: speedups[abbrev] = {"mapping": x, "no_spec": x, "spec": x}
    speedups: dict[str, dict[str, float]] = field(default_factory=dict)

    def series_geomean(self, series: str) -> float:
        return geomean(v[series] for v in self.speedups.values())

    def render(self) -> str:
        rows = [
            [abbrev, s["mapping"], s["no_spec"], s["spec"]]
            for abbrev, s in self.speedups.items()
        ]
        rows.append([
            "GEOMEAN",
            self.series_geomean("mapping"),
            self.series_geomean("no_spec"),
            self.series_geomean("spec"),
        ])
        return format_table(
            ["Benchmark", "mapping only", "accel w/o spec", "accel w/ spec"],
            rows,
            title="Figure 8: speedup vs host OOO pipeline",
        )


def figure8_specs(scale: float = 1.0) -> list:
    """Every run the Figure 8 sweep needs (baseline + three series)."""
    specs = []
    for abbrev in ALL_ABBREVS:
        specs.append(baseline_spec(abbrev, scale))
        specs.append(dynaspam_spec(abbrev, scale, mode="mapping_only"))
        specs.append(dynaspam_spec(abbrev, scale, speculation=False))
        specs.append(dynaspam_spec(abbrev, scale))
    return specs


def figure8_performance(
    scale: float = 1.0, jobs: int | None = None
) -> PerformanceResult:
    warm_cache(figure8_specs(scale), jobs)
    result = PerformanceResult(scale)
    for abbrev in ALL_ABBREVS:
        base = run_baseline(abbrev, scale).cycles
        result.speedups[abbrev] = {
            "mapping": base / run_dynaspam(abbrev, scale,
                                           mode="mapping_only").cycles,
            "no_spec": base / run_dynaspam(abbrev, scale,
                                           speculation=False).cycles,
            "spec": base / run_dynaspam(abbrev, scale).cycles,
        }
    return result


def speedup_warnings(result: PerformanceResult) -> list[str]:
    """Regression callouts for a Figure 8 sweep (``repro bench``).

    One warning per series whose geomean dips below 1.0x — i.e. DynaSpAM
    made the suite *slower* than the host pipeline on average — naming
    the worst benchmark so the reader knows where to point
    ``repro analyze``.
    """
    warnings = []
    for series in ("mapping", "no_spec", "spec"):
        geo = result.series_geomean(series)
        if geo < 1.0:
            worst = min(result.speedups,
                        key=lambda a: result.speedups[a][series])
            warnings.append(
                f"geomean speedup for '{series}' is {geo:.3f}x (< 1.0x): "
                f"suite runs slower than the host pipeline; worst is "
                f"{worst} at {result.speedups[worst][series]:.3f}x — "
                f"try `repro analyze {worst}`"
            )
    return warnings


def figure8_accounting(scale: float = 1.0) -> tuple[dict, dict]:
    """Cycle accounting + fabric utilization for the Figure 8 runs.

    Resolves every run through the layered caches — called right after
    :func:`figure8_performance` it re-reads the in-process results and
    simulates nothing, so attaching accounting to a bench report costs no
    wall clock and cannot perturb its timings.

    Returns ``(accounting, fabric_utilization)``:
    ``accounting[abbrev][series]`` is a ``bucket_breakdown`` dict and
    ``fabric_utilization[abbrev]`` the accelerated run's pool summary.
    """
    from repro.obs.accounting import bucket_breakdown

    accounting: dict[str, dict] = {}
    fabric_utilization: dict[str, dict] = {}
    for abbrev in ALL_ABBREVS:
        spec_run = run_dynaspam(abbrev, scale)
        accounting[abbrev] = {
            "baseline": bucket_breakdown(
                run_baseline(abbrev, scale).stats.as_dict()),
            "mapping": bucket_breakdown(
                run_dynaspam(abbrev, scale,
                             mode="mapping_only").stats.as_dict()),
            "no_spec": bucket_breakdown(
                run_dynaspam(abbrev, scale,
                             speculation=False).stats.as_dict()),
            "spec": bucket_breakdown(spec_run.stats.as_dict()),
        }
        fabric_utilization[abbrev] = spec_run.fabric_utilization
    return accounting, fabric_utilization


# ---------------------------------------------------------------------------
# Figure 9: energy comparison
# ---------------------------------------------------------------------------
@dataclass
class EnergyResult:
    scale: float
    #: components[abbrev] = {"baseline": {...}, "dynaspam": {...}} —
    #: per-component energy normalized to the baseline total.
    components: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    reductions: dict[str, float] = field(default_factory=dict)

    @property
    def geomean_reduction(self) -> float:
        return 1.0 - geomean(1.0 - r for r in self.reductions.values())

    def render(self) -> str:
        out = ["Figure 9: normalized energy by component "
               "(baseline -> DynaSpAM)"]
        for abbrev, both in self.components.items():
            base = both["baseline"]
            dyna = both["dynaspam"]
            parts = [
                f"{name}:{base.get(name, 0):.2f}->{dyna.get(name, 0):.2f}"
                for name in FIGURE9_COMPONENTS
                if base.get(name, 0) >= 0.005 or dyna.get(name, 0) >= 0.005
            ]
            out.append(
                f"{abbrev:5s} total {sum(base.values()):.2f}->"
                f"{sum(dyna.values()):.2f} "
                f"(reduction {self.reductions[abbrev]:6.1%})  "
                + "  ".join(parts)
            )
        out.append(f"geomean energy reduction: {self.geomean_reduction:.1%}")
        return "\n".join(out)


def figure9_energy(
    scale: float = 1.0, jobs: int | None = None
) -> EnergyResult:
    warm_cache(
        [spec for abbrev in ALL_ABBREVS
         for spec in (baseline_spec(abbrev, scale),
                      dynaspam_spec(abbrev, scale))],
        jobs,
    )
    model = EnergyModel()
    result = EnergyResult(scale)
    for abbrev in ALL_ABBREVS:
        base = model.breakdown(run_baseline(abbrev, scale).stats)
        dyna = model.breakdown(run_dynaspam(abbrev, scale).stats)
        result.components[abbrev] = {
            "baseline": base.normalized_to(base),
            "dynaspam": dyna.normalized_to(base),
        }
        result.reductions[abbrev] = dyna.reduction_vs(base)
    return result


# ---------------------------------------------------------------------------
# Table 6: area comparison
# ---------------------------------------------------------------------------
@dataclass
class AreaResult:
    modules: dict[str, float]
    fabric_8_stripes_mm2: float
    fabric_16_stripes_mm2: float
    config_cache_mm2: float

    def render(self) -> str:
        rows = [[name, area] for name, area in self.modules.items()]
        text = format_table(
            ["Module", "Area (um^2)"], rows,
            title="Table 6: area comparison for different components",
        )
        return text + (
            f"\nfabric area @ 8 stripes:  {self.fabric_8_stripes_mm2:.2f} mm^2"
            f" (paper: 2.9 mm^2)"
            f"\nfabric area @ 16 stripes: {self.fabric_16_stripes_mm2:.2f} mm^2"
            f"\nconfiguration cache:      {self.config_cache_mm2:.4f} mm^2"
            f" (paper: {PAPER_CONFIG_CACHE_MM2} mm^2)"
        )


def table6_area() -> AreaResult:
    model = FabricAreaModel()
    return AreaResult(
        modules=dict(MODULE_AREAS_UM2),
        fabric_8_stripes_mm2=model.fabric_area_mm2(8),
        fabric_16_stripes_mm2=model.fabric_area_mm2(16),
        config_cache_mm2=SramModel().area_mm2,
    )
