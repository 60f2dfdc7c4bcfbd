"""Simulation drivers backed by the disk run cache.

Figure 8 and Figure 9 share the same accelerated runs, and Figure 7 reuses
runs across trace lengths.  A run resolves through the content-addressed
on-disk cache (``repro.harness.diskcache``) and, on a miss, a fresh
simulation whose result is written there.  Nothing is kept in process: a
sweep takes its results from what ``repro.harness.parallel.execute_runs``
returns, and the disk cache serves every later resolution, across
processes too.  With the disk layer off, each resolution simulates.

Cache identity is the *full* frozen configuration — every field of
``DynaSpAMConfig``, ``CoreConfig``, and ``FabricConfig`` — so runs that
differ in any knob (``hot_threshold``, ``ready_threshold``, fabric
geometry, ...) can never serve each other's results.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import repro.harness.diskcache as diskcache
from repro.core import DynaSpAM, DynaSpAMConfig, DynaSpAMResult
from repro.fabric.config import FabricConfig
from repro.obs.runtime import TRACER
from repro.ooo.config import CoreConfig
from repro.ooo.fastpath import make_pipeline
from repro.ooo.pipeline import OOOPipeline, PipelineResult
from repro.workloads import generate_trace

#: Version of the JSON report layout shared by ``repro run --json``,
#: ``repro bench`` reports, and service job results.  ``repro diff``
#: refuses to attribute across different schema versions.  Bump when a
#: report field changes meaning; adding fields does not require a bump.
REPORT_SCHEMA_VERSION = 2


def report_provenance() -> dict:
    """The identity block every JSON report carries (``repro diff`` reads
    it to warn on cross-version comparisons)."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "code_fingerprint": diskcache.code_fingerprint(),
    }


def freeze_config(obj) -> Any:
    """Recursively freeze a config dataclass into a hashable, stable tuple."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(
            (f.name, freeze_config(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(
            sorted((k, freeze_config(v)) for k, v in obj.items())
        )
    if isinstance(obj, (list, tuple)):
        return tuple(freeze_config(v) for v in obj)
    return obj


@dataclass(frozen=True)
class RunKey:
    """Identity of one simulation run: benchmark, scale, frozen configs."""

    kind: str              # "baseline" | "dynaspam"
    abbrev: str
    scale: float
    config: tuple = ()


@dataclass
class RunSpec:
    """A run request.

    The live config objects travel with the spec (they pickle cleanly to
    worker processes); ``key`` freezes them into the cache identity, once
    per spec: a sweep reads each spec's key several times, and nothing
    changes a spec or its configs after it is built.
    """

    kind: str              # "baseline" | "dynaspam"
    abbrev: str
    scale: float
    ds_config: DynaSpAMConfig | None = None
    core_config: CoreConfig | None = None
    fabric_config: FabricConfig | None = None

    @cached_property
    def key(self) -> RunKey:
        core = freeze_config(self.core_config or CoreConfig())
        if self.kind == "baseline":
            frozen = (("core", core),)
        else:
            frozen = (
                ("ds", freeze_config(self.ds_config or DynaSpAMConfig())),
                ("core", core),
                ("fabric",
                 freeze_config(self.fabric_config or FabricConfig())),
            )
        return RunKey(self.kind, self.abbrev, self.scale, frozen)


def baseline_spec(
    abbrev: str, scale: float = 1.0, core_config: CoreConfig | None = None
) -> RunSpec:
    return RunSpec("baseline", abbrev, scale, core_config=core_config)


def dynaspam_spec(
    abbrev: str,
    scale: float = 1.0,
    *,
    config: DynaSpAMConfig | None = None,
    core_config: CoreConfig | None = None,
    fabric_config: FabricConfig | None = None,
    **knobs,
) -> RunSpec:
    """Build a DynaSpAM run spec from a full config or individual knobs."""
    if config is None:
        config = DynaSpAMConfig(**knobs)
    elif knobs:
        raise TypeError("pass either a full config or knobs, not both")
    return RunSpec(
        "dynaspam", abbrev, scale,
        ds_config=config, core_config=core_config,
        fabric_config=fabric_config,
    )


# ---------------------------------------------------------------------------
# Resolution: the disk cache, then simulation
# ---------------------------------------------------------------------------
def clear_run_cache() -> None:
    """Do nothing: runs are kept only in the disk cache.

    Kept because external harnesses still call it between passes (the
    repo benchmark's ``hostbench`` does); clear the disk layer with
    ``diskcache.configure`` or a fresh ``REPRO_CACHE_DIR`` instead.
    """


def peek_cached(key: RunKey):
    """A key's result from the disk cache, or ``None`` (no simulation)."""
    disk = diskcache.shared_cache("runs")
    return disk.get(key) if disk is not None else None


def _simulate(spec: RunSpec, sink=None):
    with TRACER.span("sim.trace_generation",
                     benchmark=spec.abbrev, scale=spec.scale):
        trace = generate_trace(spec.abbrev, spec.scale)
    if spec.kind == "baseline":
        with TRACER.span("sim.baseline",
                         benchmark=spec.abbrev, scale=spec.scale):
            return make_pipeline(spec.core_config).run_trace(trace.trace)
    with TRACER.span("sim.dynaspam",
                     benchmark=spec.abbrev, scale=spec.scale):
        machine = DynaSpAM(
            core_config=spec.core_config,
            fabric_config=spec.fabric_config,
            ds_config=spec.ds_config,
            sink=sink,
        )
        return machine.run(trace.trace, trace.program)


def execute_spec(spec: RunSpec, sink=None):
    """Simulate one run and write its result to the disk cache.

    Callers probe the cache first (``peek_cached``); this never does.
    A run with an event sink is written too: tracing is bit-identical
    by construction, so the traced result is the one an untraced run
    would have produced.
    """
    TRACER.bump("runs_simulated")
    with TRACER.span("sim.execute_spec", kind=spec.kind,
                     benchmark=spec.abbrev, scale=spec.scale):
        result = _simulate(spec, sink=sink)
    disk = diskcache.shared_cache("runs")
    if disk is not None:
        disk.put(spec.key, result)
    return result


def _resolve(spec: RunSpec, sink=None):
    """One run through the disk cache, then simulation.

    A run with an event sink always simulates — a cached result has no
    event stream to replay.
    """
    if sink is None:
        cached = peek_cached(spec.key)
        if cached is not None:
            return cached
    return execute_spec(spec, sink=sink)


# ---------------------------------------------------------------------------
# Public drivers
# ---------------------------------------------------------------------------
def run_baseline(
    abbrev: str, scale: float = 1.0, core_config: CoreConfig | None = None
) -> PipelineResult:
    """Simulate a benchmark on the plain host OOO pipeline."""
    return _resolve(baseline_spec(abbrev, scale, core_config))


def run_dynaspam(
    abbrev: str,
    scale: float = 1.0,
    mode: str = "accelerate",
    speculation: bool = True,
    trace_length: int = 32,
    num_fabrics: int = 1,
    mapper: str = "resource_aware",
    *,
    config: DynaSpAMConfig | None = None,
    core_config: CoreConfig | None = None,
    fabric_config: FabricConfig | None = None,
    sink=None,
) -> DynaSpAMResult:
    """Simulate a benchmark on the DynaSpAM-augmented core.

    ``sink`` (any ``repro.obs.EventSink``) records the lifecycle event
    stream; it forces a fresh simulation but never changes its numbers.
    """
    if config is None:
        config = DynaSpAMConfig(
            mode=mode,
            speculation=speculation,
            trace_length=trace_length,
            num_fabrics=num_fabrics,
            mapper=mapper,
        )
    return _resolve(
        dynaspam_spec(
            abbrev, scale, config=config,
            core_config=core_config, fabric_config=fabric_config,
        ),
        sink=sink,
    )


def simulation_report(
    abbrev: str,
    scale: float = 1.0,
    *,
    mode: str = "accelerate",
    speculation: bool = True,
    trace_length: int = 32,
    num_fabrics: int = 1,
    mapper: str = "resource_aware",
    sink=None,
    decisions: bool = False,
) -> dict:
    """Baseline-vs-DynaSpAM comparison for one benchmark, as a JSON dict.

    This is the shared report builder behind ``repro run --json`` and
    the service's job results — both resolve through the disk run
    cache, so a served job and a CLI run of the same spec read the very
    same cached simulation.  Passing ``sink`` records the DynaSpAM run's
    lifecycle event stream without changing a single reported number.

    ``decisions=True`` folds the event stream through a
    ``repro.obs.decisions.DecisionSink`` and attaches a ``decisions``
    block (trace fates, invocation outcomes, lost-cycles attribution).
    It is an explicit opt-in — merely passing ``sink`` never changes the
    report, so traced and untraced reports stay byte-identical.
    """
    from repro.energy import EnergyModel
    from repro.obs.accounting import bucket_breakdown

    decision_sink = None
    if decisions:
        from repro.obs.decisions import (
            DecisionSink, attribute_lost_cycles,
        )
        from repro.obs.events import TeeSink

        decision_sink = DecisionSink()
        sink = (
            decision_sink if sink is None else TeeSink(sink, decision_sink)
        )

    with TRACER.span("sim.report", benchmark=abbrev, scale=scale):
        baseline = run_baseline(abbrev, scale)
        result = run_dynaspam(
            abbrev, scale, mode=mode, speculation=speculation,
            trace_length=trace_length, num_fabrics=num_fabrics, mapper=mapper,
            sink=sink,
        )
    model = EnergyModel()
    base_energy = model.breakdown(baseline.stats)
    dyna_energy = model.breakdown(result.stats)
    report = {
        **report_provenance(),
        "benchmark": abbrev,
        "scale": scale,
        "mode": mode,
        "speculation": speculation,
        # The baseline commits every trace instruction, so a report
        # whose runs both come from the caches never needs the trace.
        "dynamic_instructions": baseline.instructions,
        "baseline_cycles": baseline.cycles,
        "baseline_ipc": baseline.ipc,
        "dynaspam_cycles": result.cycles,
        "speedup": baseline.cycles / result.cycles if result.cycles else 0.0,
        "coverage": result.coverage,
        "mapped_traces": result.mapped_traces,
        "offloaded_traces": result.offloaded_traces,
        "fabric_invocations": result.stats.fabric_invocations,
        "mean_configuration_lifetime": result.mean_lifetime,
        "squashes": result.squashes,
        "reconfigurations": result.reconfigurations,
        "energy_reduction": dyna_energy.reduction_vs(base_energy),
        "energy_components_normalized": dyna_energy.normalized_to(base_energy),
        # Top-down cycle accounting (repro.obs.accounting): exclusive
        # buckets summing exactly to each run's cycles, plus the fabric
        # occupancy summary — the inputs of `repro analyze` / `repro diff`.
        "cycle_accounting": {
            "baseline": bucket_breakdown(baseline.stats.as_dict()),
            "dynaspam": bucket_breakdown(result.stats.as_dict()),
        },
        "fabric_utilization": result.fabric_utilization,
        # Full counter blocks, generated from dataclasses.fields so a new
        # PipelineStats counter can never be silently omitted from --json.
        "stats": result.stats.as_dict(),
        "baseline_stats": baseline.stats.as_dict(),
    }
    if decision_sink is not None:
        stats_dict = result.stats.as_dict()
        breakdown = bucket_breakdown(stats_dict)
        block = decision_sink.as_dict()
        block["attribution"] = attribute_lost_cycles(
            block, stats_dict, breakdown
        )
        report["decisions"] = block
    return report


def program_simulation_report(
    path: str,
    passes: tuple[str, ...] = (),
    **sim_knobs,
) -> dict:
    """``simulation_report`` for a frontend-ingested ``.spam`` program.

    Registers the program in the benchmark registry (its content-hash
    abbreviation keys all caches), which runs ``repro.lang.ingest``: the
    program has passed the differential contract before it simulates,
    and it reports through the exact same pipeline as the Table 3
    kernels.  Raises ``repro.lang.LangError`` when the program fails
    that contract.
    """
    from repro.workloads.suite import INGESTED, register_program

    bench = register_program(path, passes)
    ingested = INGESTED[bench.abbrev]
    report = simulation_report(bench.abbrev, **sim_knobs)
    report["program"] = {
        "path": str(path),
        "passes": list(passes),
        "abbrev": bench.abbrev,
        "output": ingested.output,
        "interpreter_dynamic_count": ingested.reference.dynamic_count,
    }
    return report


def geomean(values) -> float:
    """Geometric mean (the paper's summary statistic)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
