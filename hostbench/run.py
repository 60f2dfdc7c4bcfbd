"""Host-time benchmark of the DynaSpAM reproduction.

Run from the root of a checkout::

    python3 hostbench/run.py --workload fig8_cold --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched,
timing simulation on the reference clock of ``refclock.py``.
``--trace 1`` is the separate traced run: it pairs untraced and traced
passes, reports host seconds per layer and the tracing overhead, and
checks that traced and untraced results digest equal.  Human-readable
lines go to stdout first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program runs on its shipped defaults (fast engine, memo tier, disk
cache), so any ``REPRO_*`` override in the environment is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import workloads as wl
from checks import load_reference, refuse_overrides

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fig8_cold", "accel_steady", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, work: Path, reference: dict):
    """Run the workload; returns ``(outcome, metrics)``."""
    if not args.trace:
        if args.workload == "fig8_cold":
            outcome = wl.fig8_cold(SRC, work, args.seconds, reference)
        elif args.workload == "accel_steady":
            outcome = wl.accel_steady(SRC, work, args.seconds, reference)
        else:
            outcome = wl.service_mixed(work, args.seconds, reference,
                                       args.seed)
        return outcome, outcome.metrics

    from layers import LayerTimer, layer_metrics

    timer = LayerTimer.for_program()
    try:
        if args.workload == "fig8_cold":
            outcome, seen = wl.fig8_traced(work, args.seconds, reference,
                                           timer)
        elif args.workload == "accel_steady":
            outcome, seen = wl.accel_traced(work, args.seconds, reference,
                                            timer)
        else:
            outcome, seen = wl.service_traced(work, args.seconds, reference,
                                              args.seed, timer)
        snapshot = timer.snapshot()
    finally:
        timer.close()
    metrics = layer_metrics(snapshot, seen["passes"], seen["stats"])
    # repro.service is exercised only by service_mixed; elsewhere the
    # layer does no work and reads zero.
    metrics.update(seen.get("service") or {
        name: (0.0, unit) for name, unit in wl.SERVICE_UNITS.items()})
    metrics["trace.overhead_ratio"] = (seen["overhead"], "ratio")
    return outcome, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = refuse_overrides()
    if overrides:
        print(f"hostbench: refusing to run with {', '.join(overrides)} set; "
              "the benchmark measures the shipped defaults", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    max_jobs = reference["service_mixed"]["max_jobs"]
    if (args.workload == "service_mixed"
            and round(wl.SERVICE_RATE * args.seconds) > max_jobs):
        print(f"hostbench: the stored reference covers at most {max_jobs} "
              "service jobs", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".hostbench_work" / str(os.getpid())
    try:
        outcome, metrics = measure(args, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    failed = min(outcome.failed, outcome.attempted)
    correct = failed == 0 and not outcome.problems
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in outcome.notes:
        print(f"  {line}")
    print(f"  operations {outcome.attempted}, failed {failed} "
          f"({failed / max(1, outcome.attempted):.1%})")
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
