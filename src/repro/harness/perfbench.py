"""Simulator-throughput benchmark (``repro perfbench``).

``repro bench`` answers "is the *model* still right and how long does the
sweep take end to end"; this module answers a different question: **how
fast does the simulator itself execute**, in dynamic instructions per
second and fabric invocations per second, per kernel and mode, for each
engine.  The "fast" engine is the production stack — the compiled fast
path of ``repro.ooo.fastpath`` / ``repro.fabric.compiled`` and the
offload engine's occurrence check — while "interpreted" forces the
reference model, so the reported speedup is the whole optimization stack
against the reference.

Methodology:

* Traces are generated *before* the timer starts — trace synthesis is
  workload generation, not simulation, and must not pollute throughput.
  The report gives that set-up its own numbers instead:
  ``trace_generation_seconds`` and the process's ``peak_rss_mb`` after
  the last cell, so work moved from the timed cells into trace
  generation shows there.  Both are printed, not gated.
* Every measurement constructs the machine fresh and runs it directly,
  bypassing the run caches entirely (a cache hit would measure nothing).
  The timer starts before construction: a short run pays for building
  its machine, so work moved into a constructor must not read as a
  throughput gain.
* Timing is serial, one cell at a time, on ``time.perf_counter``; with
  ``repeat > 1`` the best (minimum-time) repetition is kept, which
  filters scheduler noise without averaging it in.
* The report carries the same provenance block as every other report
  (schema version + code fingerprint) so the regression gate
  (``scripts/check_perf_regression.py``) can refuse stale baselines.

The resulting JSON feeds the CI ``perfbench`` job: the gate fails the
build when the fast engine's geomean instructions/sec regresses more than
the threshold against the committed baseline, or when the fast-vs-
interpreted speedup falls below the floor recorded at PR time.
"""

from __future__ import annotations

import math
import resource
import time

from repro.engine import use_fastpath

#: Version of the perfbench JSON layout (independent of the simulation
#: report schema — throughput reports are not `repro diff` inputs).
#: v2: cells with zero invocations report ``invocations_per_sec: null``
#: instead of ``0.0``.  v3: the invocation-memo tier is gone, and with it
#: the memo counters per cell and per engine.
PERFBENCH_SCHEMA_VERSION = 3

#: The Figure 8 suite's execution modes.
MODES = ("baseline", "mapping_only", "accelerate")

ENGINES = ("fast", "interpreted")


def _geomean(values) -> float:
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _measure_cell(trace, mode: str, engine: str, repeat: int) -> dict:
    """Time one (kernel, mode, engine) cell; returns the cell record."""
    from repro.core import DynaSpAM, DynaSpAMConfig
    from repro.ooo.fastpath import make_pipeline

    fast = engine == "fast"
    best = None
    for _ in range(max(1, repeat)):
        with use_fastpath(fast):
            started = time.perf_counter()
            if mode == "baseline":
                result = make_pipeline().run_trace(trace.trace)
            else:
                machine = DynaSpAM(ds_config=DynaSpAMConfig(mode=mode))
                result = machine.run(trace.trace, trace.program)
            elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    stats = result.stats
    instructions = stats.instructions
    invocations = getattr(stats, "fabric_invocations", 0)
    elapsed = max(elapsed, 1e-9)
    return {
        "mode": mode,
        "engine": engine,
        "instructions": instructions,
        "simulated_cycles": result.cycles,
        "wall_seconds": elapsed,
        "instr_per_sec": instructions / elapsed,
        "invocations": invocations,
        # A cell that never invoked the fabric (baseline mode, or a
        # kernel whose traces never became ready) has no invocation
        # throughput — null, not a misleading 0.0 that would poison
        # ratio math downstream.
        "invocations_per_sec": (
            invocations / elapsed if invocations else None
        ),
    }


def perfbench_report(
    scale: float = 0.1,
    kernels=None,
    modes=MODES,
    engines=ENGINES,
    repeat: int = 1,
    profile: bool = False,
) -> dict:
    """Measure simulator throughput over kernels x modes x engines."""
    from repro.harness.runner import report_provenance
    from repro.workloads import ALL_ABBREVS, generate_trace

    kernels = list(kernels or ALL_ABBREVS)
    started = time.perf_counter()

    # Generate every trace up front, so trace generation never shows up
    # inside a timed region; its time is reported on its own.
    traces = {abbrev: generate_trace(abbrev, scale) for abbrev in kernels}
    trace_generation_seconds = time.perf_counter() - started

    per_engine: dict[str, dict] = {}
    for engine in engines:
        cells = []
        for abbrev in kernels:
            for mode in modes:
                cell = _measure_cell(traces[abbrev], mode, engine, repeat)
                cell["kernel"] = abbrev
                cells.append(cell)
        per_engine[engine] = {
            "cells": cells,
            "geomean_instr_per_sec": _geomean(
                c["instr_per_sec"] for c in cells
            ),
            "geomean_invocations_per_sec": _geomean(
                c["invocations_per_sec"] for c in cells
            ),
            "total_instructions": sum(c["instructions"] for c in cells),
            "total_wall_seconds": sum(c["wall_seconds"] for c in cells),
        }

    report = {
        **report_provenance(),
        "experiment": "perfbench",
        "perfbench_schema_version": PERFBENCH_SCHEMA_VERSION,
        "scale": scale,
        "repeat": repeat,
        "kernels": kernels,
        "modes": list(modes),
        "engines": per_engine,
        "trace_generation_seconds": trace_generation_seconds,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    if "fast" in per_engine and "interpreted" in per_engine:
        slow = per_engine["interpreted"]["geomean_instr_per_sec"]
        fast = per_engine["fast"]["geomean_instr_per_sec"]
        report["speedup"] = fast / slow if slow else 0.0
    if profile:
        report["profile"] = _profile_fast_engine(traces, modes)
    return report


def _profile_fast_engine(traces, modes) -> dict:
    """cProfile one fast-engine pass; top functions by cumulative time.

    Function-level attribution of the simulation hot loop itself, which
    the harness's span totals (``--profile``) stop short of.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for trace in traces.values():
        for mode in modes:
            _measure_cell(trace, mode, "fast", repeat=1)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    top = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    ):
        filename, line, name = func
        if "cProfile" in filename or filename.startswith("<"):
            continue
        top.append({
            "function": f"{filename}:{line}({name})",
            "calls": nc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
        if len(top) >= 10:
            break
    return {"sort": "cumulative", "top": top}


def render_perfbench(report: dict) -> str:
    """One-screen human summary of a perfbench report."""
    lines = []
    engines = report["engines"]
    for engine in ("fast", "interpreted"):
        if engine not in engines:
            continue
        summary = engines[engine]
        lines.append(
            f"{engine:>12}: {summary['geomean_instr_per_sec']:>12,.0f} "
            f"instr/s geomean | "
            f"{summary['geomean_invocations_per_sec']:>10,.1f} invoc/s | "
            f"{summary['total_wall_seconds']:.2f}s over "
            f"{len(summary['cells'])} cells"
        )
    if "speedup" in report:
        lines.append(f"{'speedup':>12}: {report['speedup']:.2f}x "
                     f"(fast vs interpreted, geomean instr/s)")
    lines.append(f"{'set-up':>12}: traces generated in "
                 f"{report['trace_generation_seconds']:.2f}s | peak RSS "
                 f"{report['peak_rss_mb']:.1f} MB")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# ``repro perfbench --compare A.json B.json``


def compare_perfbench(
    baseline: dict, candidate: dict, force: bool = False
) -> dict:
    """Per-cell throughput deltas between two perfbench reports.

    Reuses the compatibility discipline of :mod:`repro.obs.diffing`:
    mismatched perfbench schema versions are refused unless ``force``,
    and a code-fingerprint mismatch is surfaced as a warning (the usual
    case — comparing across commits is the point of the tool).
    """
    from repro.obs.diffing import DiffError

    warnings: list[str] = []
    for name, report in (("baseline", baseline), ("candidate", candidate)):
        if report.get("experiment") != "perfbench":
            raise DiffError(f"{name} report is not a perfbench report")
    a_ver = baseline.get("perfbench_schema_version")
    b_ver = candidate.get("perfbench_schema_version")
    if a_ver != b_ver:
        message = (
            f"perfbench schema mismatch: baseline v{a_ver}, "
            f"candidate v{b_ver}"
        )
        if not force:
            raise DiffError(message + " (use --force to compare anyway)")
        warnings.append(message)
    if baseline.get("code_fingerprint") != candidate.get("code_fingerprint"):
        warnings.append(
            "code fingerprints differ (expected when comparing commits)"
        )
    for knob in ("scale", "repeat"):
        if baseline.get(knob) != candidate.get(knob):
            warnings.append(
                f"{knob} differs: baseline {baseline.get(knob)!r}, "
                f"candidate {candidate.get(knob)!r}"
            )

    def _cells(report):
        out = {}
        for engine, summary in report.get("engines", {}).items():
            for cell in summary["cells"]:
                out[(engine, cell["kernel"], cell["mode"])] = cell
        return out

    a_cells, b_cells = _cells(baseline), _cells(candidate)
    rows = []
    for key in sorted(set(a_cells) & set(b_cells)):
        a, b = a_cells[key], b_cells[key]
        ratio = (
            b["instr_per_sec"] / a["instr_per_sec"]
            if a["instr_per_sec"] else None
        )
        rows.append({
            "engine": key[0],
            "kernel": key[1],
            "mode": key[2],
            "baseline_instr_per_sec": a["instr_per_sec"],
            "candidate_instr_per_sec": b["instr_per_sec"],
            "ratio": ratio,
        })
    only_a = sorted(set(a_cells) - set(b_cells))
    only_b = sorted(set(b_cells) - set(a_cells))
    if only_a:
        warnings.append(f"{len(only_a)} cells only in baseline")
    if only_b:
        warnings.append(f"{len(only_b)} cells only in candidate")

    per_engine = {}
    for engine in sorted({row["engine"] for row in rows}):
        per_engine[engine] = _geomean(
            row["ratio"] for row in rows if row["engine"] == engine
        )
    return {
        "kind": "perfbench_compare",
        "warnings": warnings,
        "cells": rows,
        "geomean_ratio": per_engine,
    }


def render_perfbench_compare(comparison: dict) -> str:
    """One-screen delta view: per-cell instr/sec ratio plus geomeans."""
    lines = []
    for warning in comparison["warnings"]:
        lines.append(f"warning: {warning}")
    lines.append(
        f"{'engine':>12} {'kernel':>8} {'mode':>14} "
        f"{'baseline':>14} {'candidate':>14} {'ratio':>8}"
    )
    for row in comparison["cells"]:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] else "n/a"
        lines.append(
            f"{row['engine']:>12} {row['kernel']:>8} {row['mode']:>14} "
            f"{row['baseline_instr_per_sec']:>14,.0f} "
            f"{row['candidate_instr_per_sec']:>14,.0f} {ratio:>8}"
        )
    for engine, ratio in comparison["geomean_ratio"].items():
        lines.append(
            f"{engine:>12} geomean instr/s ratio: {ratio:.3f}x "
            f"(candidate vs baseline)"
        )
    return "\n".join(lines)
