"""Regenerate ``hostbench/reference.json`` from the current program.

Run from the root of a checkout::

    python3 hostbench/make_reference.py

The reference pins what every operation must compute: the digest of
each Figure 8 and steady-state run, the Figure 8 geomeans, and the
digest of the report for every payload ``build_schedule("mixed", ...)``
can generate within ``MAX_JOBS`` jobs.  Regenerating it is only right
when a change is meant to alter simulated results.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from checks import (  # noqa: E402
    REFERENCE_PATH,
    payload_key,
    report_digest,
    run_digest,
)

#: Service schedules up to this many jobs are covered.
MAX_JOBS = 600


def service_payloads(max_jobs: int) -> list[dict]:
    """Every payload a mixed schedule of up to ``max_jobs`` jobs can hold.

    Cold slot ``k`` jitters its scale by ``0.0001 * rng.random()`` on top
    of a fixed step, and the result is rounded to six decimals, so only a
    handful of scales are reachable per slot; a dense sweep of the jitter
    finds them all.
    """
    from repro.service.loadtest import BENCHMARK_ROTATION, build_schedule

    base = wl.SERVICE_SCALE
    payloads = build_schedule("mixed", 2 * len(BENCHMARK_ROTATION),
                              scale=base)[0::2]
    for cold in range((max_jobs + 1) // 2):
        scales = sorted({
            round(base * (1.0 + 0.003 * cold + 0.0001 * step / 4096), 6)
            for step in range(4096)
        })
        abbrev = BENCHMARK_ROTATION[cold % len(BENCHMARK_ROTATION)]
        payloads += [{"benchmark": abbrev, "scale": s} for s in scales]
    return payloads


def main() -> int:
    import repro.harness.diskcache as diskcache
    from repro.harness.runner import clear_run_cache, simulation_report
    from repro.service.loadtest import build_schedule
    from repro.workloads.suite import clear_trace_cache

    work = HERE.parent / ".hostbench_work" / "reference"
    started = time.perf_counter()
    sweep = wl.fig8_pass(wl.FIG8_SCALE, work)
    fig8 = {
        "scale": wl.FIG8_SCALE,
        "runs": {name: run_digest(r) for name, r in sweep.runs.items()},
        "geomeans": sweep.geomeans,
    }
    steady = wl.accel_pass(wl.accel_traces(work, wl.ACCEL_SCALE))
    accel = {
        "scale": wl.ACCEL_SCALE,
        "runs": {name: run_digest(r) for name, r in steady.runs.items()},
    }
    print(f"simulator references in {time.perf_counter() - started:.1f} s",
          flush=True)

    diskcache.configure(enabled=False)
    jobs = {}
    for payload in service_payloads(MAX_JOBS):
        report = simulation_report(payload["benchmark"], payload["scale"])
        jobs[payload_key(payload)] = report_digest(report)
        clear_run_cache()
        clear_trace_cache()
    for seed in range(200):
        for payload in build_schedule("mixed", MAX_JOBS,
                                      scale=wl.SERVICE_SCALE, seed=seed):
            if payload_key(payload) not in jobs:
                raise SystemExit(f"payload {payload} escaped the sweep")
    print(f"{len(jobs)} service payloads in "
          f"{time.perf_counter() - started:.1f} s", flush=True)

    reference = {
        "fig8_cold": fig8,
        "accel_steady": accel,
        "service_mixed": {
            "scale": wl.SERVICE_SCALE,
            "max_jobs": MAX_JOBS,
            "jobs": jobs,
        },
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    with contextlib.suppress(OSError):  # a benchmark run may still use it
        work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
