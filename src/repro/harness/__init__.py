"""Experiment harness: one driver per evaluation table and figure.

``python -m repro.harness <experiment>`` regenerates any of: ``table3``,
``table4``, ``fig7``, ``table5``, ``fig8``, ``fig9``, ``table6``, or
``all``.  The ``benchmarks/`` directory wraps the same drivers in
pytest-benchmark targets.
"""

from repro.harness.runner import (
    baseline_spec,
    dynaspam_spec,
    run_baseline,
    run_dynaspam,
    simulation_report,
    RunKey,
    RunSpec,
)
from repro.harness.parallel import default_jobs, execute_runs, max_jobs
from repro.harness.experiments import (
    figure7_coverage,
    figure8_accounting,
    figure8_performance,
    figure9_energy,
    speedup_warnings,
    table3_benchmarks,
    table4_parameters,
    table5_lifetime,
    table6_area,
)

__all__ = [
    "baseline_spec",
    "default_jobs",
    "dynaspam_spec",
    "execute_runs",
    "figure7_coverage",
    "figure8_accounting",
    "figure8_performance",
    "figure9_energy",
    "speedup_warnings",
    "max_jobs",
    "run_baseline",
    "run_dynaspam",
    "simulation_report",
    "RunKey",
    "RunSpec",
    "table3_benchmarks",
    "table4_parameters",
    "table5_lifetime",
    "table6_area",
]
