"""Top-level command line interface.

Usage::

    python -m repro list [--programs DIR]         # available benchmarks
    python -m repro ingest PROG.spam [--passes lvn,dce,licm]
                                     [--json] [--emit-ir]
    python -m repro run KM [--scale 0.5] [--mode accelerate]
                           [--no-speculation] [--fabrics 2]
                           [--trace-length 32] [--json]
                           [--trace-out km.trace.json]
    python -m repro explain KM [--scale 0.5] [--top 10]
                               [--trace-id 0x1a4:TNT:32]
    python -m repro why KM [--scale 0.5] [--mode accelerate] [--json]
    python -m repro study --programs corpus [--passes none]
                          [--passes lvn,dce] [--only bfs_frontier,dot]
                          [--json] [--output STUDY.json]
    python -m repro analyze KM [--scale 0.5] [--baseline host]
    python -m repro diff A.json B.json [--json] [--force]
    python -m repro bench [--scale 1.0] [--jobs 4] [--no-cache] [--cold]
                          [--progress]
                          [--output BENCH_speedup.json] [--dashboard DIR]
    python -m repro serve [--port 8763] [--workers 2] [--queue-depth 64]
    python -m repro submit KM [--scale 0.5] [--wait] [--port 8763]
    python -m repro watch JOB_ID [--port 8763] [--interval 0.2]
    python -m repro harness fig8 [--scale 1.0] [--jobs 4]  # = repro.harness

``ingest`` runs a ``.spam`` program through the ``repro.lang`` frontend
(parse, check, optional optimization passes, lowering to the simulator
ISA) and differentially tests the lowered program against the reference
interpreter before registering it as a benchmark.
``run`` simulates one benchmark on the baseline core and the DynaSpAM
machine and reports speedup, coverage, trace statistics, and the energy
ledger — as a human-readable summary or a JSON document for scripting.
``run --program PROG.spam`` does the same for an ingested frontend
program, registered through the same differential check (its
content-hash abbreviation keys the run caches, so editing the source
can never replay a stale result).
``run --trace-out`` additionally records the lifecycle event stream and
exports it as Chrome trace-event JSON (load it in https://ui.perfetto.dev
or chrome://tracing); the simulated numbers are bit-identical either way.
``explain`` folds the same event stream, as it streams, into per-trace
lifetime reports (the decision fold behind ``why``): when each trace was
detected, went hot, got mapped, turned ready, and how often it offloaded
or squashed.
``why`` folds the event stream into decision records — every trace
candidate's terminal fate (offloaded, unmappable, never hot, ...) plus
a lost-cycles attribution joining the fates against the cycle-accounting
buckets; nonzero exit if fate conservation is violated.
``study`` runs every ``.spam`` corpus program under each ``--passes``
pipeline (default: none, lvn+dce, licm) with decision records on and
reports the detection/mapping/squash deltas side by side.
``analyze`` prints the top-down cycle-accounting breakdown — every
simulated cycle charged to exactly one bucket — side by side for the
host, mapping-only, and accelerated runs, with a conservation check
(nonzero exit if any bucket leaks) and the fabric-utilization summary.
``diff`` compares two report JSON files (``run --json`` or ``bench``
documents) and attributes each per-benchmark cycle delta to bucket
deltas; it refuses mismatched report schema versions unless ``--force``
and warns when the code fingerprints differ.
``bench`` times the full Figure 8 sweep and writes a machine-readable
speedup/timing report of that sweep alone (``--cold`` bypasses the
caches so the timing measures real simulation); a kernel's trace fates
are ``why --json``'s and an ingested program's row is
``run --program --json``'s.
``serve`` starts the simulation-as-a-service HTTP server and ``submit``
sends it a job; ``submit --wait`` prints the same JSON ``run --json``
does, resolved through the server's queue and caches.
``watch`` polls a submitted job's document, printing each state change
to stderr, and prints the final document (result included) once the
job is terminal.

Host-runtime telemetry (``repro.obs.runtime``) is wired here: setting
``REPRO_LOG=runs.jsonl`` streams structured span/heartbeat records for
any command, ``bench --progress`` / ``study --progress`` print live
heartbeats, and ``run --trace-out`` adds a second wall-clock process to
the exported Chrome trace.  With none of those enabled the telemetry
path is never allocated and every report stays byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _fail(message: str) -> int:
    """One-line diagnostic on stderr + conventional usage-error exit code."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _validate_run_args(args) -> str | None:
    """Canonical benchmark on success, ``None`` after printing an error."""
    from repro.service.errors import InvalidJob
    from repro.service.jobs import validate_benchmark, validate_scale

    try:
        benchmark = validate_benchmark(args.benchmark)
        validate_scale(args.scale)
    except InvalidJob as exc:
        _fail(str(exc))
        return None
    return benchmark


def cmd_list(args) -> int:
    from repro.workloads import ALL_ABBREVS, BENCHMARKS

    programs = None
    if args.programs:
        from repro.lang import LangError, parse_pass_spec
        from repro.workloads.suite import discover_programs

        try:
            programs = discover_programs(args.programs,
                                         parse_pass_spec(args.passes))
        except (LangError, ValueError, OSError) as exc:
            return _fail(str(exc))

    print(f"{'abbrev':>7}  {'name':<22} {'domain':<20} kernel")
    for abbrev in ALL_ABBREVS:
        bench = BENCHMARKS[abbrev]
        print(f"{abbrev:>7}  {bench.name:<22} {bench.domain:<20} "
              f"{bench.kernel}")
    if programs is not None:
        print()
        print(f"programs under {args.programs}:")
        print(f"  {'name':<14} abbrev")
        for bench in programs:
            print(f"  {bench.name:<14} {bench.abbrev}")
    return 0


def cmd_ingest(args) -> int:
    """Ingest one program through the differential check and summarize it."""
    from repro.lang import LangError, format_module, parse_pass_spec
    from repro.workloads.suite import INGESTED, register_program

    try:
        passes = parse_pass_spec(args.passes)
        bench = register_program(args.program, passes)
    except (LangError, ValueError, OSError) as exc:
        return _fail(str(exc))
    ingested = INGESTED[bench.abbrev]
    if args.emit_ir:
        # Keep stdout pure IR so it can be piped back into `repro ingest`.
        print(format_module(ingested.module), end="")
        return 0
    ref, before = ingested.reference, ingested.unoptimized
    lowered, result = ingested.lowered, ingested.run
    summary = {
        "program": args.program,
        "passes": list(passes),
        "abbrev": bench.abbrev,
        "functions": len(ingested.module.functions),
        "interpreter": {
            "output": ref.output,
            "dynamic_count": ref.dynamic_count,
            "unoptimized_dynamic_count": before.dynamic_count,
            "heap_words": ref.heap_words,
        },
        "lowered": {
            "static_size": lowered.static_size,
            "dynamic_count": result.dynamic_count,
            "registers_used": len(lowered.var_regs),
            "spill_slots": len(lowered.spill_slots),
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"{args.program}: ok "
          f"(passes: {','.join(passes) if passes else 'none'})")
    print(f"  registered  {bench.abbrev}")
    print(f"  interpreter {ref.dynamic_count} dynamic instructions "
          f"({before.dynamic_count} before passes), "
          f"{len(ref.output)} words printed")
    print(f"  lowered     {lowered.static_size} static / "
          f"{result.dynamic_count} dynamic ISA instructions, "
          f"{len(lowered.var_regs)} registers, "
          f"{len(lowered.spill_slots)} spill slots")
    print("  outputs     interpreter == simulated (differential check ok)")
    return 0


def cmd_run(args) -> int:
    from repro.harness.runner import simulation_report

    sink = None
    if args.trace_out:
        from repro.obs import MemorySink

        sink = MemorySink()
    if args.program is not None:
        if args.benchmark is not None:
            return _fail("pass a benchmark abbreviation or --program, "
                         "not both")
        if args.scale != 1.0:
            return _fail("--scale does not apply to --program runs "
                         "(ingested programs have one fixed problem size)")
        from repro.harness.runner import program_simulation_report
        from repro.lang import LangError, parse_pass_spec

        try:
            report = program_simulation_report(
                args.program,
                parse_pass_spec(args.passes),
                mode=args.mode,
                speculation=not args.no_speculation,
                trace_length=args.trace_length,
                num_fabrics=args.fabrics,
                sink=sink,
                decisions=args.decisions,
            )
        except (LangError, ValueError, OSError) as exc:
            return _fail(str(exc))
        benchmark = report["benchmark"]
    else:
        if args.benchmark is None:
            return _fail("missing benchmark (name one, or use "
                         "--program PROG.spam)")
        if args.passes:
            return _fail("--passes applies only to --program runs")
        benchmark = _validate_run_args(args)
        if benchmark is None:
            return 2
        report = simulation_report(
            benchmark,
            args.scale,
            mode=args.mode,
            speculation=not args.no_speculation,
            trace_length=args.trace_length,
            num_fabrics=args.fabrics,
            sink=sink,
            decisions=args.decisions,
        )
    if sink is not None:
        from repro.obs import write_chrome_trace
        from repro.obs.runtime import TRACER

        # main() force-enables the tracer for --trace-out, so the host
        # wall-clock spans recorded so far become the pid-2 process next
        # to the simulated-cycle tracks.
        host_spans = TRACER.records()
        count = write_chrome_trace(
            sink.events, args.trace_out,
            end_cycle=report["dynaspam_cycles"],
            host_spans=host_spans,
        )
        # Keep --json stdout pure (a JSON document and nothing else).
        print(f"trace: {count} events -> {args.trace_out} "
              f"({len(host_spans)} host wall-clock spans; "
              f"load in https://ui.perfetto.dev)", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    cov = report["coverage"]
    print(f"{benchmark}: {report['dynamic_instructions']} dynamic "
          f"instructions at scale {args.scale}")
    print(f"  baseline  {report['baseline_cycles']:>9} cycles "
          f"(IPC {report['baseline_ipc']:.2f})")
    print(f"  DynaSpAM  {report['dynaspam_cycles']:>9} cycles "
          f"(speedup {report['speedup']:.2f}x)")
    print(f"  coverage  host {cov['host']:.1%} | mapping "
          f"{cov['mapping']:.1%} | fabric {cov['fabric']:.1%}")
    print(f"  traces    {report['mapped_traces']} mapped, "
          f"{report['offloaded_traces']} offloaded, "
          f"{report['fabric_invocations']} invocations, "
          f"lifetime {report['mean_configuration_lifetime']:.0f}")
    print(f"  energy    {report['energy_reduction']:.1%} reduction")
    if args.decisions:
        fates = report["decisions"]["trace_fates"]["counts"]
        summary = " | ".join(
            f"{fate} {count}" for fate, count in fates.items() if count
        )
        print(f"  fates     {summary or 'no trace candidates'}")
    return 0


def cmd_explain(args) -> int:
    """Per-trace lifetime report: detected -> hot -> mapped -> offloaded."""
    from repro.harness.runner import run_dynaspam
    from repro.obs import (
        DecisionSink,
        TeeSink,
        TraceEventLog,
        format_trace_id,
        render_explain,
        render_trace_detail,
    )

    benchmark = _validate_run_args(args)
    if benchmark is None:
        return 2
    fold = DecisionSink()
    log = TraceEventLog(args.trace_id) if args.trace_id else None
    run_dynaspam(
        benchmark,
        args.scale,
        mode=args.mode,
        speculation=not args.no_speculation,
        trace_length=args.trace_length,
        num_fabrics=args.fabrics,
        sink=fold if log is None else TeeSink(fold, log),
    )
    if log is not None:
        detail = render_trace_detail(fold, args.trace_id, log.events)
        if detail is None:
            known = ", ".join(
                format_trace_id(key) for key, _ in fold.ranked()[:8]
            ) or "none"
            return _fail(
                f"no trace {args.trace_id!r} in this run (try: {known})"
            )
        print(detail)
        return 0
    print(f"{benchmark} @ scale {args.scale}")
    print(render_explain(fold, top=args.top))
    return 0


def cmd_why(args) -> int:
    """Trace-fate attribution: why did each candidate (not) accelerate?"""
    from repro.harness.runner import simulation_report
    from repro.obs.decisions import render_why

    benchmark = _validate_run_args(args)
    if benchmark is None:
        return 2
    report = simulation_report(
        benchmark,
        args.scale,
        mode=args.mode,
        speculation=not args.no_speculation,
        trace_length=args.trace_length,
        num_fabrics=args.fabrics,
        decisions=True,
    )
    decisions = report["decisions"]
    if args.json:
        print(json.dumps({
            "schema_version": report["schema_version"],
            "code_fingerprint": report["code_fingerprint"],
            "benchmark": benchmark,
            "scale": args.scale,
            "mode": args.mode,
            "speculation": not args.no_speculation,
            "speedup": report["speedup"],
            "decisions": decisions,
        }, indent=2))
    else:
        print(render_why(
            benchmark,
            decisions,
            decisions["attribution"],
            report["cycle_accounting"]["dynaspam"],
        ))
    if not decisions["trace_fates"]["conserved"]:
        print("repro: error: trace fates are not conserved "
              "(some identity has no or multiple terminal records)",
              file=sys.stderr)
        return 1
    return 0


def cmd_study(args) -> int:
    """Corpus x pass-pipeline sweep with decision records per cell."""
    from repro.harness.study import (
        DEFAULT_PIPELINES,
        render_study,
        study_programs,
    )
    from repro.lang import LangError, parse_pass_spec

    pipelines = DEFAULT_PIPELINES
    if args.passes:
        try:
            pipelines = tuple(parse_pass_spec(spec) for spec in args.passes)
        except ValueError as exc:
            return _fail(str(exc))
    only = None
    if args.only:
        only = tuple(
            stem.strip() for stem in args.only.split(",") if stem.strip()
        )
    tracker = None
    if args.progress:
        from repro.obs import progress as obs_progress

        # study_programs sets the real total (programs x pipelines) once
        # it has globbed the corpus.
        tracker = obs_progress.ProgressTracker(0, label="study")
    try:
        study = study_programs(
            args.programs, pipelines, only=only, tracker=tracker
        )
    except (LangError, ValueError, OSError) as exc:
        return _fail(str(exc))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(study, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(study, indent=2))
    else:
        print(render_study(study))
        if args.output:
            print(f"report -> {args.output}")
    return 0 if study["conserved"] else 1


def cmd_analyze(args) -> int:
    """Top-down cycle breakdown per mode + conservation + fabric stats."""
    from repro.harness.runner import run_baseline, run_dynaspam
    from repro.obs.accounting import (
        bucket_breakdown,
        render_breakdown,
        render_conservation,
        render_utilization,
    )

    benchmark = _validate_run_args(args)
    if benchmark is None:
        return 2
    base = run_baseline(benchmark, args.scale)
    mapping = run_dynaspam(
        benchmark, args.scale, mode="mapping_only",
        trace_length=args.trace_length, num_fabrics=args.fabrics,
    )
    spec = run_dynaspam(
        benchmark, args.scale,
        trace_length=args.trace_length, num_fabrics=args.fabrics,
    )
    columns = {
        "host": bucket_breakdown(base.stats.as_dict()),
        "mapping": bucket_breakdown(mapping.stats.as_dict()),
        "spec": bucket_breakdown(spec.stats.as_dict()),
    }
    print(f"{benchmark} @ scale {args.scale}: cycle accounting "
          f"(baseline column: {args.baseline})")
    baseline_column = "host" if args.baseline == "host" else "mapping"
    print(render_breakdown(columns, baseline=baseline_column))
    print()
    print(render_conservation(columns))
    print()
    print(render_utilization(spec.fabric_utilization))
    if not all(c["conserved"] for c in columns.values()):
        print("repro: error: cycle accounting is not conserved",
              file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    """Attribute the cycle delta between two report JSON files."""
    from repro.obs.diffing import (
        DiffError,
        diff_reports,
        load_report,
        render_diff,
    )

    try:
        report_a = load_report(args.report_a)
        report_b = load_report(args.report_b)
        diff = diff_reports(report_a, report_b, force=args.force)
    except DiffError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff, label_a=args.report_a,
                          label_b=args.report_b))
    return 0


def cmd_bench(args) -> int:
    """Timed Figure 8 sweep -> machine-readable speedup/timing report."""
    import repro.harness.diskcache as diskcache
    from repro.harness import (
        figure8_accounting,
        figure8_performance,
        speedup_warnings,
    )
    from repro.harness.__main__ import apply_cache_arguments
    from repro.harness.runner import report_provenance
    from repro.obs.runtime import TRACER

    apply_cache_arguments(args)
    if args.cold:
        # A cold benchmark measures simulation, not cache replay: no
        # disk layer, and no kept trace.
        from repro.workloads.suite import clear_trace_cache

        diskcache.configure(enabled=False)
        clear_trace_cache()
    tracker = None
    if args.progress:
        from repro.harness.experiments import figure8_specs
        from repro.obs import progress as obs_progress

        # execute_runs dedups by spec key, so the total counts unique runs.
        total = len({spec.key for spec in figure8_specs(args.scale)})
        tracker = obs_progress.ProgressTracker(total, label="bench")
        obs_progress.activate(tracker)
    mark = TRACER.mark()
    started = time.perf_counter()
    try:
        result = figure8_performance(args.scale, jobs=args.jobs)
    finally:
        if tracker is not None:
            obs_progress.deactivate()
    wall_clock = time.perf_counter() - started

    # The sweep's span totals and counters (main() turned the tracer on).
    profile = TRACER.profile(since=mark)
    cache_stats = diskcache.shared_stats()
    disk_hits = sum(ns.get("hits", 0) for ns in cache_stats.values())
    runs_simulated = profile["counters"].get("runs_simulated", 0)
    # Derived from the sweep's own runs: no resolution, no simulation.
    accounting, fabric_utilization = figure8_accounting(result.runs)
    warnings = speedup_warnings(result)
    report = {
        **report_provenance(),
        "experiment": "fig8",
        "scale": args.scale,
        "jobs": args.jobs,
        "cold": bool(args.cold),
        "disk_cache_enabled": diskcache.is_enabled(),
        "wall_clock_seconds": wall_clock,
        "geomean": {
            series: result.series_geomean(series)
            for series in ("mapping", "no_spec", "spec")
        },
        "per_benchmark": result.speedups,
        # One warning per series whose geomean dipped below 1.0x (also
        # echoed on stderr below).
        "warnings": warnings,
        # Per-benchmark cycle accounting and accelerated-run fabric
        # occupancy — derived from the sweep's own stats, the inputs of
        # `repro diff` and the --dashboard renderer.
        "accounting": accounting,
        "fabric_utilization": fabric_utilization,
        "cache": {
            "disk": cache_stats,
            "runs_simulated": runs_simulated,
            "hit_ratio": disk_hits / max(1, disk_hits + runs_simulated),
        },
        "profile": profile,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"geomean speedup (spec) {report['geomean']['spec']:.2f}x | "
          f"wall clock {wall_clock:.2f}s | "
          f"cache hit ratio {report['cache']['hit_ratio']:.0%}"
          f"{' (cold)' if args.cold else ''} | report -> {args.output}")
    for warning in warnings:
        print(f"repro: warning: {warning}", file=sys.stderr)
    if args.dashboard:
        from repro.obs.dashboard import write_dashboard

        path = write_dashboard(report, args.dashboard)
        print(f"dashboard -> {path}")
    if args.profile:
        from repro.harness.__main__ import render_profile

        print(render_profile(report["profile"], report["cache"]["disk"]))
    return 0


def cmd_perfbench(args) -> int:
    """Simulator-throughput measurement -> JSON report + regression gate
    input (instr/sec and invocations/sec per kernel x mode x engine)."""
    from repro.harness.perfbench import (
        ENGINES,
        MODES,
        compare_perfbench,
        perfbench_report,
        render_perfbench,
        render_perfbench_compare,
    )

    if args.compare:
        from repro.obs.diffing import DiffError, load_report

        baseline_path, candidate_path = args.compare
        try:
            baseline = load_report(baseline_path)
            candidate = load_report(candidate_path)
            comparison = compare_perfbench(
                baseline, candidate, force=args.force
            )
        except DiffError as exc:
            return _fail(str(exc))
        if args.json:
            print(json.dumps(comparison, indent=2))
        else:
            print(render_perfbench_compare(comparison))
        return 0

    kernels = None
    if args.kernels:
        from repro.workloads import ALL_ABBREVS

        kernels = [k.strip().upper() for k in args.kernels.split(",") if k.strip()]
        unknown = [k for k in kernels if k not in ALL_ABBREVS]
        if unknown:
            return _fail(f"unknown kernels: {', '.join(unknown)} "
                         f"(available: {', '.join(ALL_ABBREVS)})")
    engines = ENGINES if args.engine == "both" else (args.engine,)
    report = perfbench_report(
        scale=args.scale,
        kernels=kernels,
        modes=MODES,
        engines=engines,
        repeat=args.repeat,
        profile=args.profile,
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(render_perfbench(report))
    print(f"report -> {args.output}")
    if args.profile:
        print("hot functions (cumulative):")
        for entry in report["profile"]["top"]:
            print(f"  {entry['cumtime']:>8.3f}s  {entry['calls']:>9} calls  "
                  f"{entry['function']}")
    return 0


def cmd_serve(args) -> int:
    from repro.service.server import run_server

    if args.workers is not None and args.workers < 1:
        return _fail(f"invalid --workers {args.workers}: must be >= 1")
    if args.queue_depth < 1:
        return _fail(f"invalid --queue-depth {args.queue_depth}: "
                     "must be >= 1")
    return run_server(
        args.host,
        args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
    )


def cmd_loadtest(args) -> int:
    from repro.service.client import ServiceUnreachable
    from repro.service.loadtest import MIXES, run_loadtest, summarize

    if args.rate <= 0:
        return _fail(f"invalid --rate {args.rate}: must be > 0")
    if args.mix not in MIXES:
        return _fail(f"unknown --mix {args.mix}")
    try:
        report = run_loadtest(
            args.host,
            args.port,
            rate=args.rate,
            duration=args.duration,
            total=args.jobs,
            mix=args.mix,
            scale=args.scale,
            seed=args.seed,
            timeout=args.timeout,
        )
    except ServiceUnreachable as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"loadtest report -> {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(summarize(report))
    return 0


def cmd_submit(args) -> int:
    from repro.service.client import (
        JobFailed,
        ServerBusy,
        ServiceClient,
        ServiceUnreachable,
    )

    benchmark = _validate_run_args(args)
    if benchmark is None:
        return 2
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        job = client.submit(
            benchmark,
            scale=args.scale,
            mode=args.mode,
            speculation=not args.no_speculation,
            trace_length=args.trace_length,
            fabrics=args.fabrics,
        )
        if not args.wait:
            print(json.dumps({"job": job}, indent=2))
            return 0
        final = client.wait(job["id"], timeout=args.timeout)
    except ServerBusy as exc:
        print(f"repro: server busy: {exc} (retry after {exc.retry_after}s)",
              file=sys.stderr)
        return 1
    except ServiceUnreachable as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except JobFailed as exc:
        print(f"repro: job failed: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final["result"], indent=2))
    return 0


def cmd_watch(args) -> int:
    """Poll a submitted job until it is terminal; print its document."""
    from repro.service.client import (
        JobFailed,
        ServiceClient,
        ServiceUnreachable,
    )
    from repro.service.errors import UnknownJob

    client = ServiceClient(args.host, args.port, timeout=args.timeout)

    def on_change(doc) -> None:
        # State lines go to stderr; stdout stays a single JSON doc.
        print(f"{doc['state']:>8}  {doc['request']['benchmark']}",
              file=sys.stderr, flush=True)

    try:
        final = client.wait(
            args.job_id,
            timeout=args.timeout,
            poll_interval=args.interval,
            on_change=on_change,
        )
    except UnknownJob as exc:
        return _fail(str(exc))
    except JobFailed as exc:
        print(f"repro: job failed: {exc}", file=sys.stderr)
        return 1
    except ServiceUnreachable as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final, indent=2))
    return 0


def _add_run_knobs(parser: argparse.ArgumentParser,
                   optional_benchmark: bool = False) -> None:
    if optional_benchmark:
        parser.add_argument("benchmark", nargs="?", default=None)
    else:
        parser.add_argument("benchmark")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", default="accelerate",
                        choices=["baseline", "mapping_only", "accelerate"])
    parser.add_argument("--no-speculation", action="store_true")
    parser.add_argument("--fabrics", type=int, default=1)
    parser.add_argument("--trace-length", type=int, default=32)


def main(argv=None) -> int:
    from repro.harness.__main__ import (
        add_cache_arguments,
        add_harness_arguments,
    )
    from repro.service.server import DEFAULT_PORT

    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list available benchmarks")
    list_parser.add_argument(
        "--programs", metavar="DIR", default=None,
        help="register and list the .spam programs under DIR instead of "
             "the built-in kernels")
    list_parser.add_argument(
        "--passes", default=None, metavar="lvn,dce,licm",
        help="optimization pipeline folded into each program's "
             "registered abbreviation")

    ingest_parser = sub.add_parser(
        "ingest",
        help="parse, check, optimize, and lower one .spam program")
    ingest_parser.add_argument("program", metavar="PROG.spam")
    ingest_parser.add_argument(
        "--passes", default=None, metavar="lvn,dce,licm",
        help="comma-separated optimization pipeline to run first")
    ingest_parser.add_argument("--json", action="store_true")
    ingest_parser.add_argument(
        "--emit-ir", action="store_true",
        help="print the (optimized) IR instead of the summary")

    run_parser = sub.add_parser(
        "run", help="simulate one benchmark or ingested program")
    _add_run_knobs(run_parser, optional_benchmark=True)
    run_parser.add_argument(
        "--program", metavar="PROG.spam", default=None,
        help="simulate a frontend program instead of a built-in kernel")
    run_parser.add_argument(
        "--passes", default=None, metavar="lvn,dce,licm",
        help="optimization pipeline for --program")
    run_parser.add_argument("--json", action="store_true")
    run_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record lifecycle events and export Chrome trace-event "
             "JSON (Perfetto-loadable) to PATH")
    run_parser.add_argument(
        "--decisions", action="store_true",
        help="fold the event stream into decision records (adds a "
             "'decisions' block to --json and a fate summary line)")

    explain_parser = sub.add_parser(
        "explain", help="per-trace lifetime report for one benchmark")
    _add_run_knobs(explain_parser)
    explain_parser.add_argument(
        "--top", type=int, default=10,
        help="number of traces to list (0 = all)")
    explain_parser.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="full event timeline for one trace (id as printed in the "
             "table, e.g. 0x1a4:TNT:32)")

    why_parser = sub.add_parser(
        "why",
        help="trace-fate attribution: why candidates did (not) accelerate")
    _add_run_knobs(why_parser)
    why_parser.add_argument("--json", action="store_true")

    study_parser = sub.add_parser(
        "study",
        help="pass-impact study over a .spam corpus (decision records "
             "per program x pipeline)")
    study_parser.add_argument(
        "--programs", metavar="DIR", required=True,
        help="directory of .spam programs to study")
    study_parser.add_argument(
        "--passes", action="append", default=None, metavar="lvn,dce",
        help="one pass pipeline per flag ('none' = unoptimized; "
             "default: none, lvn+dce, licm)")
    study_parser.add_argument(
        "--only", default=None, metavar="bfs_frontier,dot",
        help="comma-separated program stems to include")
    study_parser.add_argument("--json", action="store_true")
    study_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the study report JSON to PATH")
    study_parser.add_argument(
        "--progress", action="store_true",
        help="print a live heartbeat per study cell to stderr "
             "(done/total, instr/s, ETA)")

    analyze_parser = sub.add_parser(
        "analyze",
        help="top-down cycle-accounting breakdown for one benchmark")
    analyze_parser.add_argument("benchmark")
    analyze_parser.add_argument("--scale", type=float, default=1.0)
    analyze_parser.add_argument("--fabrics", type=int, default=1)
    analyze_parser.add_argument("--trace-length", type=int, default=32)
    analyze_parser.add_argument(
        "--baseline", default="host", choices=["host", "mapping"],
        help="column the delta columns are computed against")

    diff_parser = sub.add_parser(
        "diff", help="attribute the cycle delta between two report files")
    diff_parser.add_argument("report_a", metavar="A.json")
    diff_parser.add_argument("report_b", metavar="B.json")
    diff_parser.add_argument("--json", action="store_true",
                             help="machine-readable attribution document")
    diff_parser.add_argument(
        "--force", action="store_true",
        help="compare even across report schema versions")

    bench_parser = sub.add_parser(
        "bench", help="timed Figure 8 sweep with a JSON report")
    bench_parser.add_argument("--scale", type=float, default=1.0)
    bench_parser.add_argument("--output", default="BENCH_speedup.json")
    bench_parser.add_argument(
        "--cold", action="store_true",
        help="bypass the run/disk caches so timing measures simulation")
    bench_parser.add_argument(
        "--dashboard", metavar="DIR", default=None,
        help="also render the report as a self-contained HTML dashboard "
             "(DIR/index.html)")
    bench_parser.add_argument(
        "--progress", action="store_true",
        help="print a live heartbeat per finished run to stderr "
             "(done/total, instr/s, ETA)")
    add_cache_arguments(bench_parser)

    perfbench_parser = sub.add_parser(
        "perfbench",
        help="measure simulator throughput (instr/sec) per engine")
    perfbench_parser.add_argument("--scale", type=float, default=0.1)
    perfbench_parser.add_argument(
        "--kernels", default=None, metavar="KM,NW,...",
        help="comma-separated kernel subset (default: all)")
    perfbench_parser.add_argument(
        "--engine", default="both", choices=["both", "fast", "interpreted"])
    perfbench_parser.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per cell; the fastest is kept")
    perfbench_parser.add_argument("--output", default="PERFBENCH.json")
    perfbench_parser.add_argument("--json", action="store_true")
    perfbench_parser.add_argument(
        "--profile", action="store_true",
        help="cProfile one fast-engine pass; top-10 cumulative functions "
             "go into the report")
    perfbench_parser.add_argument(
        "--compare", nargs=2, metavar=("BASELINE.json", "CANDIDATE.json"),
        default=None,
        help="compare two saved perfbench reports (per-cell instr/sec "
             "ratio + geomean) instead of measuring")
    perfbench_parser.add_argument(
        "--force", action="store_true",
        help="with --compare: proceed despite a schema-version mismatch")

    serve_parser = sub.add_parser(
        "serve", help="start the simulation job server")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                              help="listen port (0 picks a free port)")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="simulation workers (default: min(cpu, 8),"
                                   " capped by REPRO_MAX_JOBS)")
    serve_parser.add_argument("--queue-depth", type=int, default=64,
                              help="max open (queued + running) jobs")

    loadtest_parser = sub.add_parser(
        "loadtest",
        help="open-loop arrival-rate load generator with a JSON SLO report")
    loadtest_parser.add_argument("--host", default="127.0.0.1")
    loadtest_parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                                 help="service port to drive")
    loadtest_parser.add_argument("--rate", type=float, default=2.0,
                                 help="target arrival rate (jobs/sec)")
    loadtest_parser.add_argument("--duration", type=float, default=5.0,
                                 help="arrival window in seconds")
    loadtest_parser.add_argument("--jobs", type=int, default=None,
                                 metavar="N",
                                 help="total jobs (overrides rate*duration)")
    loadtest_parser.add_argument("--mix", default="cold-heavy",
                                 choices=["cold-heavy", "duplicate-heavy",
                                          "mixed"],
                                 help="traffic mix")
    loadtest_parser.add_argument("--scale", type=float, default=0.05,
                                 help="base benchmark scale per job")
    loadtest_parser.add_argument("--seed", type=int, default=0,
                                 help="schedule jitter seed")
    loadtest_parser.add_argument("--timeout", type=float, default=300.0,
                                 help="per-job completion deadline")
    loadtest_parser.add_argument("--output", default=None, metavar="PATH",
                                 help="write the JSON report to PATH")
    loadtest_parser.add_argument("--json", action="store_true",
                                 help="print the full report JSON instead "
                                      "of the one-line summary")

    submit_parser = sub.add_parser(
        "submit", help="submit one benchmark job to a running server")
    _add_run_knobs(submit_parser)
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit_parser.add_argument("--wait", action="store_true",
                               help="poll to completion and print the "
                                    "run report JSON")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="submit/wait deadline in seconds")

    watch_parser = sub.add_parser(
        "watch",
        help="poll a submitted job until terminal; print its document")
    watch_parser.add_argument("job_id", metavar="JOB_ID")
    watch_parser.add_argument("--host", default="127.0.0.1")
    watch_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    watch_parser.add_argument("--interval", type=float, default=0.2,
                              help="poll interval in seconds")
    watch_parser.add_argument("--timeout", type=float, default=600.0,
                              help="give up after this many seconds")

    harness_parser = sub.add_parser("harness",
                                    help="regenerate evaluation artifacts")
    add_harness_arguments(harness_parser)

    args = parser.parse_args(argv)
    from repro.obs.runtime import (
        TRACER,
        init_runtime_telemetry,
        shutdown_runtime_telemetry,
    )

    # --trace-out and --progress need spans/heartbeats even without a
    # REPRO_LOG destination, and bench and --profile read their section
    # totals from the spans; everything else turns on by environment only.
    forced = bool(getattr(args, "trace_out", None)
                  or getattr(args, "progress", False)
                  or args.command == "bench"
                  or (args.command == "harness" and args.profile))
    run_id = init_runtime_telemetry(
        args.command, force=forced,
        argv=list(argv) if argv is not None else sys.argv[1:],
    )
    try:
        if run_id is None:
            return _dispatch(args)
        with TRACER.span(f"cli.{args.command}"):
            return _dispatch(args)
    finally:
        if run_id is not None:
            # One CLI invocation == one run: return the process-wide
            # tracer to its disabled default so repeated in-process
            # main() calls (tests) never accumulate spans across runs.
            TRACER.disable()
            TRACER.reset()
            TRACER.run_id = None
        shutdown_runtime_telemetry()


def _dispatch(args) -> int:
    if args.command == "list":
        return cmd_list(args)
    if args.command == "ingest":
        return cmd_ingest(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "why":
        return cmd_why(args)
    if args.command == "study":
        return cmd_study(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "perfbench":
        return cmd_perfbench(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "loadtest":
        return cmd_loadtest(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "watch":
        return cmd_watch(args)
    from repro.harness.__main__ import run_harness

    return run_harness(args)


if __name__ == "__main__":
    sys.exit(main())
