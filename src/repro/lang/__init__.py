"""``repro.lang``: the program-ingestion frontend.

A Bril-style SSA-free text IR (``.spam`` files) with a hand-written
parser, a semantic checker, a reference interpreter, an optimization
pass pipeline (LVN / DCE / LICM), and a lowering onto the simulator
ISA — so any user-supplied program becomes a DynaSpAM workload that
runs through the entire existing stack unchanged.

:func:`ingest` is the one way in: it walks every stage and holds the
differential contract (the passes keep the interpreter's output, and
the lowered ISA program prints the same words).  ``repro ingest``,
``repro run --program``, ``repro list --programs``, ``repro study`` and
the fuzz gate all reach the frontend through it::

    from repro.lang import ingest

    program = ingest(source_text, "prog.spam", passes=("lvn", "dce"))
    print(program.output)            # words both executions printed
    program.lowered.program          # repro.isa Program
    program.run.trace                # its checked dynamic trace

See ``docs/frontend.md`` for the grammar and the lowering contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.isa.executor import ExecutionLimitExceeded, ExecutionResult
from repro.lang.ast import Module, format_module
from repro.lang.check import check_module, entry_function
from repro.lang.interp import InterpResult, interpret
from repro.lang.lower import (
    Lowered,
    LoweringError,
    execute_lowered,
    lower_module,
    output_of,
)
from repro.lang.parser import LangError, parse_module
from repro.lang.passes import PASSES, parse_pass_spec, run_passes

__all__ = [
    "Ingested",
    "InterpResult",
    "LangError",
    "Lowered",
    "LoweringError",
    "Module",
    "PASSES",
    "check_module",
    "entry_function",
    "execute_lowered",
    "format_module",
    "ingest",
    "interpret",
    "load_file",
    "load_module",
    "lower_module",
    "output_of",
    "parse_module",
    "parse_pass_spec",
    "run_passes",
]


def load_module(source: str, filename: str = "<string>") -> Module:
    """Parse *and* check ``.spam`` text.  Raises :class:`LangError`
    with ``file:line:col``."""
    module = check_module(parse_module(source, filename))
    entry_function(module)
    return module


def load_file(path: str | Path) -> Module:
    """Load and validate a ``.spam`` file."""
    path = Path(path)
    return load_module(path.read_text(), filename=str(path))


@dataclass(frozen=True)
class Ingested:
    """A program that passed the differential contract."""

    module: Module                  #: checked, after the passes
    unoptimized: InterpResult       #: the interpreter on the source
    reference: InterpResult         #: the interpreter after the passes
    lowered: Lowered
    run: ExecutionResult            #: the lowered program's execution

    @property
    def output(self) -> list[int]:
        """The words the interpreter and the lowered program printed."""
        return self.reference.output


def ingest(source: str, filename: str = "<string>",
           passes: tuple[str, ...] = ()) -> Ingested:
    """Parse, check, optimize, lower and execute one program.

    The differential contract: the named passes (re-checked with
    reserved names allowed) keep the interpreter's output, and the
    lowered program, executed on the functional ISA executor, prints
    the same words.  Any failure raises :class:`LangError`.
    """
    from repro.obs.runtime import TRACER

    with TRACER.span("ingest.program", program=filename):
        module = load_module(source, filename)
        unoptimized = reference = interpret(module)
        if passes:
            module = check_module(run_passes(module, list(passes)),
                                  allow_reserved=True)
            reference = interpret(module)
            if reference.output != unoptimized.output:
                raise LangError(
                    f"passes {','.join(passes)} changed the output "
                    f"{unoptimized.output} -> {reference.output}",
                    filename)
        lowered = lower_module(module, name=Path(filename).stem)
        try:
            run = execute_lowered(lowered)
        except (ExecutionLimitExceeded, RuntimeError, ValueError) as exc:
            raise LangError(f"lowered program failed: {exc}",
                            filename) from None
        printed = output_of(run)
        if printed != reference.output:
            raise LangError(
                f"lowered program printed {printed}, the interpreter "
                f"{reference.output}", filename)
    return Ingested(module, unoptimized, reference, lowered, run)
