#!/usr/bin/env python3
"""Compare a fresh ``repro bench`` report against the committed baseline.

Usage::

    python scripts/check_bench_regression.py CURRENT.json BASELINE.json

Fails (exit 1) when the current wall clock exceeds the baseline by more
than the allowed regression (default 25%, override with
``--max-regression 0.25``). Also sanity-checks that the simulated
geomeans match the baseline, so a "speedup" that changes the science is
caught even when it is faster.

``--require-cold`` additionally demands that the current report timed
real simulation: the bench must have run with ``--cold``, simulated at
least one run, and served nothing from the disk cache.  Without it a
fully-cached sweep (hit ratio 100%) can "pass" while measuring nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GEOMEAN_TOLERANCE = 1e-9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional wall-clock slowdown")
    parser.add_argument("--require-cold", action="store_true",
                        help="fail unless the current report timed real "
                             "simulation (cold caches, runs simulated)")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())

    cur_wall = current["wall_clock_seconds"]
    base_wall = baseline["wall_clock_seconds"]
    limit = base_wall * (1.0 + args.max_regression)
    ratio = cur_wall / base_wall if base_wall else float("inf")
    print(f"wall clock: current {cur_wall:.2f}s vs baseline {base_wall:.2f}s "
          f"({ratio:.2f}x, limit {limit:.2f}s)")

    cache = current.get("cache", {})
    runs_simulated = cache.get("runs_simulated", 0)
    disk_hits = sum(ns.get("hits", 0)
                    for ns in cache.get("disk", {}).values())
    hit_ratio = cache.get("hit_ratio")
    if hit_ratio is not None:
        print(f"cache: hit ratio {hit_ratio:.0%}, "
              f"{runs_simulated} runs simulated, {disk_hits} disk hits, "
              f"cold={current.get('cold', False)}")

    failures = []
    if cur_wall > limit:
        failures.append(
            f"wall clock regressed {ratio:.2f}x "
            f"(> {1.0 + args.max_regression:.2f}x allowed)")

    if args.require_cold:
        if not current.get("cold"):
            failures.append("report was not produced with --cold")
        if runs_simulated == 0:
            failures.append(
                "no runs were simulated: the timing measured cache replay")
        if disk_hits > 0:
            failures.append(
                f"{disk_hits} disk-cache hits in a cold run: timing is "
                "contaminated by cached results")

    for series, base_value in baseline["geomean"].items():
        cur_value = current["geomean"].get(series)
        if cur_value is None or abs(cur_value - base_value) > GEOMEAN_TOLERANCE:
            failures.append(
                f"geomean[{series}] drifted: {cur_value} vs {base_value}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: within budget, geomeans unchanged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
