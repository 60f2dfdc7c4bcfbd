"""Optimization pass pipeline for IR modules.

Passes are registered by name and composed from a comma-separated
spec (``repro ingest PROG.spam --passes lvn,dce,licm``).  Every pass
is a pure ``Module -> Module`` function that preserves the program's
printed output; the per-pass semantics tests in
``tests/lang/test_passes.py`` enforce this over the whole corpus.
"""

from __future__ import annotations

from repro.lang.ast import Module
from repro.lang.passes import dce, licm, lvn

#: name -> Module transform, in documentation order.
PASSES = {
    "lvn": lvn.run,
    "dce": dce.run,
    "licm": licm.run,
}


def parse_pass_spec(spec: str | None) -> tuple[str, ...]:
    """Split ``"lvn,dce"`` into pass names; ``none`` (or no spec) is no
    passes.  ValueError on unknown names."""
    if spec is None or spec.strip().lower() == "none":
        return ()
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    unknown = [name for name in names if name not in PASSES]
    if unknown:
        raise ValueError(
            f"unknown pass(es): {', '.join(unknown)} "
            f"(available: {', '.join(PASSES)})")
    return names


def run_passes(module: Module, names: list[str]) -> Module:
    """Apply the named passes to ``module`` in order."""
    for name in names:
        module = PASSES[name](module)
    return module
