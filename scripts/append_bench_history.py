#!/usr/bin/env python3
"""Append one bench-history record to a JSONL ledger.

Usage::

    python scripts/append_bench_history.py BENCH.json .bench_history.jsonl

Reads a ``repro bench`` report and appends a single-line JSON record —
timestamp, commit, geomeans, accounting bucket totals, wall clock — so
the performance trajectory accumulates run over run.  The CI bench job
runs this after the regression gate and uploads the ledger with the
dashboard artifact; locally it works the same way against any report.

``repro perfbench`` reports (``experiment: perfbench``) are recognized
automatically and produce a throughput-shaped record instead: per-engine
geomean instructions/sec and the fast-vs-interpreted speedup.
``repro loadtest`` reports (``experiment: loadtest``) produce a
service-level record: jobs/sec, p50/p99 latency, coalesce ratio, and
worker utilization per traffic mix.

Timestamp and commit come from the CI environment when present
(``GITHUB_RUN_STARTED_AT`` / ``GITHUB_SHA``), falling back to the
current UTC time and ``git rev-parse HEAD``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path


def _timestamp() -> str:
    stamped = os.environ.get("GITHUB_RUN_STARTED_AT")
    if stamped:
        return stamped
    return (datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"))


def _commit() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bucket_totals(report: dict) -> dict:
    """Suite-wide cycles per bucket and series, summed over benchmarks."""
    totals: dict[str, dict[str, int]] = {}
    for by_series in (report.get("accounting") or {}).values():
        for series, breakdown in by_series.items():
            series_totals = totals.setdefault(series, {})
            for name, cycles in (breakdown.get("buckets") or {}).items():
                series_totals[name] = series_totals.get(name, 0) + cycles
    return totals


def perfbench_record(report: dict) -> dict:
    """History record for a ``repro perfbench`` (throughput) report."""
    engines = {
        name: {
            "geomean_instr_per_sec": summary.get("geomean_instr_per_sec"),
            "geomean_invocations_per_sec": summary.get(
                "geomean_invocations_per_sec"),
            "total_wall_seconds": summary.get("total_wall_seconds"),
        }
        for name, summary in (report.get("engines") or {}).items()
    }
    return {
        "timestamp": _timestamp(),
        "commit": _commit(),
        "experiment": "perfbench",
        "perfbench_schema_version": report.get("perfbench_schema_version"),
        "code_fingerprint": report.get("code_fingerprint"),
        "scale": report.get("scale"),
        "repeat": report.get("repeat"),
        "wall_clock_seconds": report.get("wall_clock_seconds"),
        "engines": engines,
        "speedup": report.get("speedup"),
    }


def program_rows(report: dict) -> dict:
    """Per-ingested-program speedup rows (``repro bench --programs``).

    Keyed by program stem; the content-hash abbreviation rides along so
    the history distinguishes records made against edited sources.
    """
    return {
        stem: {
            "abbrev": row.get("abbrev"),
            "speedup": row.get("speedup"),
            "baseline_cycles": row.get("baseline_cycles"),
            "dynaspam_cycles": row.get("dynaspam_cycles"),
            "dynamic_instructions": row.get("dynamic_instructions"),
        }
        for stem, row in (report.get("programs") or {}).items()
    }


def decision_summary(report: dict) -> dict | None:
    """Suite-wide trace-fate totals (``repro bench --decisions``).

    Sums the per-benchmark fate counts and carries a single conservation
    verdict, so the ledger records *why* coverage moved — more unmappable
    traces, more squash-dominated ones — alongside the speedup it moved to.
    """
    blocks = report.get("decisions") or {}
    if not blocks:
        return None
    totals: dict[str, int] = {}
    unmappable: dict[str, int] = {}
    conserved = True
    for block in blocks.values():
        fates = block.get("trace_fates") or {}
        for fate, count in (fates.get("counts") or {}).items():
            totals[fate] = totals.get(fate, 0) + count
        for reason, count in (fates.get("unmappable_reasons") or {}).items():
            unmappable[reason] = unmappable.get(reason, 0) + count
        conserved = conserved and bool(fates.get("conserved", True))
    return {
        "fate_totals": totals,
        "unmappable_reasons": unmappable,
        "conserved": conserved,
    }


def loadtest_record(report: dict) -> dict:
    """History record for a ``repro loadtest`` (service SLO) report."""
    server = report.get("server") or {}
    workers = server.get("workers") or {}
    latency = report.get("latency_seconds") or {}
    return {
        "timestamp": _timestamp(),
        "commit": _commit(),
        "experiment": "loadtest",
        "loadtest_schema_version": report.get("loadtest_schema_version"),
        "mix": report.get("mix"),
        "rate_target_jobs_per_sec": report.get("rate_target_jobs_per_sec"),
        "jobs_total": report.get("jobs_total"),
        "wall_clock_seconds": report.get("wall_clock_seconds"),
        "throughput_jobs_per_sec": report.get("throughput_jobs_per_sec"),
        "latency_p50_seconds": latency.get("p50"),
        "latency_p99_seconds": latency.get("p99"),
        "coalesce_ratio": server.get("coalesce_ratio"),
        "conserved": server.get("conserved"),
        "workers_total": workers.get("total"),
        "worker_utilization": workers.get("utilization"),
    }


def history_record(report: dict) -> dict:
    if report.get("experiment") == "perfbench":
        return perfbench_record(report)
    if report.get("experiment") == "loadtest":
        return loadtest_record(report)
    record = {
        "timestamp": _timestamp(),
        "commit": _commit(),
        "schema_version": report.get("schema_version"),
        "code_fingerprint": report.get("code_fingerprint"),
        "scale": report.get("scale"),
        "cold": report.get("cold"),
        "wall_clock_seconds": report.get("wall_clock_seconds"),
        "geomean": report.get("geomean", {}),
        "bucket_totals": bucket_totals(report),
        "warnings": report.get("warnings", []),
    }
    programs = program_rows(report)
    if programs:
        record["programs"] = programs
    decisions = decision_summary(report)
    if decisions:
        record["decisions"] = decisions
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path)
    parser.add_argument("history", type=Path)
    args = parser.parse_args(argv)

    try:
        report = json.loads(args.report.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"append_bench_history: cannot read {args.report}: {exc}",
              file=sys.stderr)
        return 1
    record = history_record(report)
    with args.history.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if record.get("experiment") == "perfbench":
        fast = (record["engines"].get("fast") or {}).get(
            "geomean_instr_per_sec") or 0.0
        summary = f"(fast {fast:,.0f} instr/s)"
    elif record.get("experiment") == "loadtest":
        summary = (
            f"({record.get('mix')} "
            f"{record.get('throughput_jobs_per_sec') or 0.0:.2f} jobs/s)"
        )
    else:
        summary = f"(geomean spec {record['geomean'].get('spec', 0):.3f}x)"
    print(f"appended {record['commit'][:12]} @ {record['timestamp']} "
          f"-> {args.history} {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
