"""Engine selection: the compiled hot path or the interpreted model.

The repository carries two engine tiers for its innermost loops:

* the *interpreted* engine — ``repro.ooo.pipeline.OOOPipeline.process``
  and the plan-free branches of ``SpatialFabric.execute`` /
  ``FunctionalFabric.execute`` — written for readability and used as the
  reference model; DynaSpAM re-walks every trace occurrence in full;
* the *fast path* — ``repro.ooo.fastpath.FastOOOPipeline``, the
  pre-lowered evaluators of ``repro.fabric.compiled``, and DynaSpAM's
  occurrence probe (a key-matched occurrence is validated by
  spot-checking its embedded branches instead of re-walking it) —
  bit-identical by construction and enforced so by the identity sweep
  (``tests/engine/test_fastpath_identity.py`` and the CI
  ``fastpath-identity`` job).

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
    """True when new pipelines/fabrics should use the compiled hot path."""
    return _FASTPATH


def set_fastpath(enabled: bool) -> bool:
    """Select the engine for subsequently constructed simulators.

    Returns the previous setting.  Components capture the engine at
    construction time (``make_pipeline``, ``DynaSpAM``) or probe it per
    invocation (fabric evaluators); flipping the flag never changes a
    simulation already in flight.
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
