#!/usr/bin/env python3
"""Assert two ``repro run --json`` reports are identical.

Usage::

    python scripts/check_report_identity.py reference.json candidate.json

The engine tier (``REPRO_FASTPATH``), host telemetry, the replica router
and the worker pool are implementation choices and must never change a
report: the two files are compared whole, with nothing scrubbed.  Any
difference — a cycle count, a stat, a report field — is a modeling
divergence and fails the build, printing the offending paths.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def diff_paths(a, b, path="$", out=None) -> list[str]:
    """Paths where the two trees differ (bounded, for the log)."""
    if out is None:
        out = []
    if len(out) >= 20:
        return out
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: only in one report")
            else:
                diff_paths(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} vs {len(b)}")
        else:
            for index, (x, y) in enumerate(zip(a, b)):
                diff_paths(x, y, f"{path}[{index}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} vs {b!r}")
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for arg in argv:
        try:
            reports.append(json.loads(Path(arg).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_report_identity: cannot read {arg}: {exc}",
                  file=sys.stderr)
            return 1
    reference, candidate = reports
    if reference == candidate:
        print(f"identical: {argv[0]} == {argv[1]}")
        return 0
    print(f"REPORTS DIVERGE: {argv[0]} vs {argv[1]}", file=sys.stderr)
    for path in diff_paths(reference, candidate):
        print(f"  {path}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
