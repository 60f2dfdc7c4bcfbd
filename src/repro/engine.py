"""Engine selection: the compiled hot path or the interpreted model.

The repository carries two engine tiers for its innermost loops:

* the *interpreted* engine — ``repro.ooo.pipeline.OOOPipeline.process``,
  ``SpatialFabric.execute`` and ``OffloadEngine.offload`` — written for
  readability and used as the reference model; DynaSpAM re-walks every
  trace occurrence in full;
* the *fast path* — ``repro.ooo.fastpath.FastOOOPipeline`` and, in the
  offload engine, the occurrence check ``OffloadEngine.occurrence`` (a
  key-matched occurrence is validated by spot-checking its embedded
  branches instead of re-walking it) and the offload twin
  ``OffloadEngine._offload_plan`` with the fabric timing walk
  ``SpatialFabric.walk`` it calls directly, all over the plans of
  ``repro.fabric.compiled``, which the engine compiles once per
  configuration from the configuration alone — bit-identical by
  construction and enforced so by the identity tests in ``tests/engine``
  and the CI ``fastpath-identity`` job.

The value oracle ``repro.fabric.functional.FunctionalFabric`` runs in no
simulation, so it has one (interpreted) evaluator on either tier.

The fast path is on by default; ``REPRO_FASTPATH=0`` (or
:func:`set_fastpath`) selects the interpreted reference — the A side of
every identity comparison and of ``repro perfbench --engine both``.

Because both tiers produce identical results — every report byte, stats
counter and traced event, with nothing scrubbed — engine choice is
deliberately *not* part of the run-cache identity
(``repro.harness.runner.RunKey``): a cached result serves either tier.
Comparisons that must time or diff real executions therefore bypass the
caches (the identity sweep simulates directly; ``perfbench`` never
touches the run cache; the CI identity job uses disjoint cache dirs).
"""

from __future__ import annotations

import os


def _env_default() -> bool:
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


#: Process-wide engine switch.  Read through :func:`fastpath_enabled`.
_FASTPATH: bool = _env_default()


def fastpath_enabled() -> bool:
    """True when newly constructed components should use the fast path."""
    return _FASTPATH


def set_fastpath(enabled: bool) -> bool:
    """Select the engine for subsequently constructed simulators.

    Returns the previous setting.  The engine is captured at two points,
    once, at construction: ``make_pipeline`` reads the flag, and
    ``OffloadEngine`` takes its pipeline's tier.  ``DynaSpAM`` holds no
    tier of its own.  Flipping the flag never changes a simulation
    already in flight.
    """
    global _FASTPATH
    previous = _FASTPATH
    _FASTPATH = bool(enabled)
    return previous


class use_fastpath:
    """Context manager scoping an engine choice (used by tests/benchmarks)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._previous: bool | None = None

    def __enter__(self) -> "use_fastpath":
        self._previous = set_fastpath(self.enabled)
        return self

    def __exit__(self, *exc) -> None:
        set_fastpath(self._previous)
