#!/usr/bin/env python3
"""Compare a fresh ``repro perfbench`` report against the committed baseline.

Usage::

    python scripts/check_perf_regression.py CURRENT.json ci/perfbench_baseline.json

Two checks, one machine-dependent and one machine-invariant:

* **Throughput floor** — the fast engine's geomean dynamic
  instructions/sec must not fall more than ``--max-regression`` (default
  25%) below the baseline's.  Meaningful when the current report and the
  baseline come from comparable machines (CI runners); tune or skip with
  ``--max-regression`` when they do not.
* **Speedup floor** — the fast-vs-interpreted speedup ratio is measured
  within a single run on a single machine, so it transfers across
  hardware.  It must not fall more than ``--speedup-tolerance`` (default
  20%) below the baseline ratio: a "fast" engine that stops being fast
  relative to its own interpreted twin has regressed no matter how quick
  the runner is.

It also prints each report's set-up, trace generation seconds and peak
RSS, without gating them: perfbench generates its traces before the
first timed cell, so work moved there shows only in these numbers.

Schema mismatches fail loudly rather than comparing unlike reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop in fast-engine "
                             "geomean instr/sec vs the baseline")
    parser.add_argument("--speedup-tolerance", type=float, default=0.20,
                        help="allowed fractional drop in the fast-vs-"
                             "interpreted speedup vs the baseline")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())

    failures = []
    for name, report in (("current", current), ("baseline", baseline)):
        if report.get("experiment") != "perfbench":
            failures.append(f"{name} report is not a perfbench report")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if (current.get("perfbench_schema_version")
            != baseline.get("perfbench_schema_version")):
        print("FAIL: perfbench schema versions differ "
              f"({current.get('perfbench_schema_version')} vs "
              f"{baseline.get('perfbench_schema_version')})",
              file=sys.stderr)
        return 1

    cur_fast = current["engines"]["fast"]["geomean_instr_per_sec"]
    base_fast = baseline["engines"]["fast"]["geomean_instr_per_sec"]
    floor = base_fast * (1.0 - args.max_regression)
    print(f"fast geomean: current {cur_fast:,.0f} instr/s vs baseline "
          f"{base_fast:,.0f} instr/s (floor {floor:,.0f})")
    if cur_fast < floor:
        failures.append(
            f"fast-engine throughput regressed to "
            f"{cur_fast / base_fast:.2f}x of baseline "
            f"(floor {1.0 - args.max_regression:.2f}x)")

    cur_speedup = current.get("speedup")
    base_speedup = baseline.get("speedup")
    if base_speedup:
        if cur_speedup is None:
            failures.append(
                "current report has no speedup (run both engines)")
        else:
            speedup_floor = base_speedup * (1.0 - args.speedup_tolerance)
            print(f"speedup: current {cur_speedup:.2f}x vs baseline "
                  f"{base_speedup:.2f}x (floor {speedup_floor:.2f}x)")
            if cur_speedup < speedup_floor:
                failures.append(
                    f"fast-vs-interpreted speedup fell to "
                    f"{cur_speedup:.2f}x (floor {speedup_floor:.2f}x)")

    for name, report in (("current", current), ("baseline", baseline)):
        if "trace_generation_seconds" in report:
            print(f"set-up ({name}): traces generated in "
                  f"{report['trace_generation_seconds']:.2f}s, peak RSS "
                  f"{report['peak_rss_mb']:.1f} MB (not gated)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: simulator throughput within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
