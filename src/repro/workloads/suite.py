"""Benchmark registry and trace generation.

``BENCHMARKS`` maps the paper's Table 3 abbreviations to ``Benchmark``
records; ``generate_trace`` runs a kernel functionally and keeps the
resulting dynamic trace in an in-process cache.  Traces are not persisted:
regenerating one with the predecoded executor costs about what loading it
from disk would (docs/internals.md section 7), and writing it would cost
every cold run more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.executor import ExecutionResult, FunctionalExecutor, Memory
from repro.isa.program import Program
from repro.workloads.kernels import (
    bfs,
    bp,
    btree,
    hotspot,
    kmeans,
    knn,
    lud,
    nw,
    particlefilter,
    pathfinder,
    srad,
)


@dataclass(frozen=True)
class Benchmark:
    """A registered kernel analog (one row of the paper's Table 3)."""

    abbrev: str
    name: str
    domain: str
    kernel: str
    description: str
    builder: Callable[[float], tuple[Program, Memory]]

    def build(self, scale: float = 1.0) -> tuple[Program, Memory]:
        return self.builder(scale)


def _register(module) -> Benchmark:
    meta = module.META
    return Benchmark(
        abbrev=meta["abbrev"],
        name=meta["name"],
        domain=meta["domain"],
        kernel=meta["kernel"],
        description=meta["description"],
        builder=module.build,
    )


_MODULES = (bp, bfs, btree, hotspot, kmeans, lud, knn, nw, pathfinder,
            particlefilter, srad)

#: Table 3 order: BP, BFS, BT, HS, KM, LD, KNN, NW, PF, PTF, SRAD.
BENCHMARKS: dict[str, Benchmark] = {
    bench.abbrev: bench for bench in (_register(m) for m in _MODULES)
}

ALL_ABBREVS: tuple[str, ...] = tuple(BENCHMARKS)

_TRACE_CACHE: dict[tuple[str, float], ExecutionResult] = {}


def get_benchmark(abbrev: str) -> Benchmark:
    """Look up a benchmark by its Table 3 abbreviation (e.g. ``"KM"``)."""
    try:
        return BENCHMARKS[abbrev]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {abbrev!r}; available: {', '.join(BENCHMARKS)}"
        ) from None


def generate_trace(abbrev: str, scale: float = 1.0) -> ExecutionResult:
    """Functionally execute a benchmark and return its (cached) trace.

    Traces resolve through the in-process cache and are regenerated on a
    miss, never loaded from disk.  A kernel's trace is a pure function of
    ``(abbrev, scale)``, so every process (a parallel sweep's workers
    included) regenerates the same one.
    """
    key = (abbrev, scale)
    result = _TRACE_CACHE.get(key)
    if result is None:
        program, memory = get_benchmark(abbrev).build(scale)
        result = FunctionalExecutor(max_instructions=20_000_000).run(
            program, memory
        )
        _TRACE_CACHE[key] = result
    return result


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _TRACE_CACHE.clear()


# ---------------------------------------------------------------------------
# Ingested programs (repro.lang frontend)
# ---------------------------------------------------------------------------
#: Abbreviation prefix for frontend-ingested programs.  These register in
#: ``BENCHMARKS`` (so traces, run keys, and reports work unchanged) but are
#: deliberately absent from ``ALL_ABBREVS``, which stays the 11 Table 3
#: kernels that sweeps and the bench dashboard iterate by default.
PROGRAM_PREFIX = "PROG:"


def program_abbrev(source: str, stem: str, passes: tuple[str, ...] = ()) -> str:
    """Content-hash-bearing abbreviation for an ingested program.

    The hash covers the source text *and* the pass pipeline, so editing a
    ``.spam`` file (or changing ``--passes``) yields a new abbreviation and
    therefore fresh disk-cache keys — stale traces and run results can never
    be replayed against modified programs.
    """
    import hashlib

    digest = hashlib.sha256(
        (source + "\x00" + ",".join(passes)).encode()
    ).hexdigest()[:12].upper()
    return f"{PROGRAM_PREFIX}{stem}:{digest}"


def register_program(path: str, passes: tuple[str, ...] = ()) -> Benchmark:
    """Parse, check, optionally optimize, and register a ``.spam`` program.

    Returns the registered ``Benchmark``; repeated calls with identical
    source and passes are idempotent (same abbreviation, same entry).
    Raises ``repro.lang.LangError`` on parse/check failures and
    ``ValueError`` on an unknown pass name.
    """
    import copy
    import pathlib

    # Imported lazily: the frontend is optional for trace-only workflows.
    from repro.lang import load_module, lower_module, run_passes

    text = pathlib.Path(path).read_text()
    stem = pathlib.Path(path).stem
    abbrev = program_abbrev(text, stem, passes)
    if abbrev in BENCHMARKS:
        return BENCHMARKS[abbrev]

    module = load_module(text, filename=str(path))
    if passes:
        module = run_passes(copy.deepcopy(module), list(passes))
    lowered = lower_module(module, name=stem)

    def builder(scale: float, _lowered=lowered) -> tuple[Program, Memory]:
        # Ingested programs have one fixed problem size; ``scale`` is part
        # of the builder signature for registry compatibility only.
        return _lowered.program, Memory()

    bench = Benchmark(
        abbrev=abbrev,
        name=stem,
        domain="Ingested",
        kernel=stem,
        description=(
            f"frontend program {path}"
            + (f" (passes: {','.join(passes)})" if passes else "")
        ),
        builder=builder,
    )
    BENCHMARKS[abbrev] = bench
    return bench


def discover_programs(directory: str,
                      passes: tuple[str, ...] = ()) -> list[Benchmark]:
    """Register every ``*.spam`` file under ``directory`` (sorted by name)."""
    import pathlib

    root = pathlib.Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    found = sorted(root.glob("*.spam"))
    if not found:
        raise FileNotFoundError(f"no .spam programs under {directory}")
    return [register_program(str(p), passes) for p in found]
