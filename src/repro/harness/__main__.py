"""Command-line entry point: regenerate any evaluation table or figure.

Usage::

    python -m repro.harness fig8 [--scale 1.0] [--jobs 4]
                                 [--no-cache] [--profile]
    python -m repro.harness all
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.harness.diskcache as diskcache
from repro.harness import experiments
from repro.harness.profiling import PROFILER


def _characterization(scale: float) -> str:
    from repro.harness.characterization import characterization

    return characterization(scale).render()


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared performance flags (also used by ``python -m repro``)."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent runs out over N processes "
             "(default: cpu count, clamped to 8 under CI; "
             "REPRO_MAX_JOBS caps both)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache")
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wall clock and cache counters")


def apply_cache_arguments(args) -> None:
    from repro.harness.parallel import default_jobs

    if args.no_cache:
        diskcache.configure(enabled=False)
    if args.jobs is None:
        args.jobs = default_jobs()


def print_profile() -> None:
    for namespace, stats in sorted(diskcache.shared_stats().items()):
        for name, count in stats.items():
            PROFILER.bump(f"disk_{namespace}_{name}", count)
    print(PROFILER.render())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate DynaSpAM evaluation tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=["table3", "table4", "fig7", "table5", "fig8", "fig9",
                 "table6", "table7", "workloads", "all"],
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="benchmark problem-size scale (default 1.0)")
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    apply_cache_arguments(args)

    jobs = {
        "table3": lambda: experiments.table3_benchmarks(),
        "table4": lambda: experiments.table4_parameters(),
        "fig7": lambda: experiments.figure7_coverage(
            args.scale, jobs=args.jobs).render(),
        "table5": lambda: experiments.table5_lifetime(
            args.scale, jobs=args.jobs).render(),
        "fig8": lambda: experiments.figure8_performance(
            args.scale, jobs=args.jobs).render(),
        "fig9": lambda: experiments.figure9_energy(
            args.scale, jobs=args.jobs).render(),
        "table6": lambda: experiments.table6_area().render(),
        "table7": lambda: experiments.table7_related_work(),
        "workloads": lambda: _characterization(args.scale),
    }
    names = list(jobs) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(jobs[name]())
        print(f"[{name} regenerated in {time.time() - started:.1f}s]\n")
    if args.profile:
        print_profile()
    return 0


if __name__ == "__main__":
    sys.exit(main())
