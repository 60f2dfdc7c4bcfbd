"""Static and dynamic instruction records.

``Instruction`` is the static form that lives inside a ``Program``;
``DynamicInstruction`` is what a trace holds at each position: the static
instruction with the resolved branch outcome and effective memory address
that the trace-driven cycle simulators need.  The functional executor
shares one record among every execution with the same outcome and
address, so records are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import Opcode, OpClass, latency_of, opclass_of

WORD_SIZE = 4


@dataclass(frozen=True)
class Instruction:
    """A static instruction.

    Parameters
    ----------
    opcode:
        Operation to perform.
    dest:
        Destination register name, or ``None`` for stores/branches.
    srcs:
        Source register names.  For memory ops the first source is the base
        address register; for stores the second source is the value.
    imm:
        Immediate operand (offset for memory ops, literal for LI/FLI,
        shift amounts, ...).
    target:
        Branch/jump target label, resolved to a PC when the program links.
    """

    opcode: Opcode
    dest: str | None = None
    srcs: tuple[str, ...] = ()
    imm: float | int | None = None
    target: str | None = None
    pc: int = field(default=-1, compare=False)

    # Derived metadata, resolved once at construction: the simulators probe
    # these on every dynamic instruction, so they are plain attributes
    # rather than recomputed properties.
    opclass: OpClass = field(init=False, compare=False, repr=False)
    latency: int = field(init=False, compare=False, repr=False)
    is_branch: bool = field(init=False, compare=False, repr=False)
    is_control: bool = field(init=False, compare=False, repr=False)
    is_load: bool = field(init=False, compare=False, repr=False)
    is_store: bool = field(init=False, compare=False, repr=False)
    is_memory: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        opclass = opclass_of(self.opcode)
        set_attr = object.__setattr__  # frozen dataclass
        set_attr(self, "opclass", opclass)
        set_attr(self, "latency", latency_of(self.opcode))
        set_attr(self, "is_branch", opclass is OpClass.BRANCH)
        set_attr(self, "is_control", opclass.is_control)
        set_attr(self, "is_load", opclass is OpClass.LOAD)
        set_attr(self, "is_store", opclass is OpClass.STORE)
        set_attr(self, "is_memory", opclass.is_memory)

    def with_pc(self, pc: int) -> "Instruction":
        """Return a copy of this instruction placed at ``pc``."""
        return Instruction(self.opcode, self.dest, self.srcs, self.imm, self.target, pc)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.value]
        if self.dest:
            parts.append(self.dest)
        parts.extend(self.srcs)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        return " ".join(parts)


class DynamicInstruction:
    """An executed instance of a static instruction.

    A trace is a list of these, one per dynamic instruction in program
    order; a record's position is its trace index.  The functional
    executor interns them: one record per static instruction for an
    operation without an address or outcome, one per outcome for a
    branch, one per effective address for a load or store, each appended
    wherever it executes again.  Records are therefore shared and
    read-only: nothing may write to one.

    Attributes
    ----------
    static:
        The static ``Instruction`` executed.
    addr:
        Effective byte address for loads/stores, else ``None``.
    taken:
        Branch outcome for branches, else ``None``.
    next_pc:
        PC of the next dynamic instruction (the branch target when taken).
    """

    __slots__ = ("static", "addr", "taken", "next_pc",
                 "pc", "opcode", "is_branch")

    def __init__(
        self,
        static: Instruction,
        addr: int | None = None,
        taken: bool | None = None,
        next_pc: int = -1,
    ) -> None:
        self.static = static
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        # Flattened from ``static``: probed on every simulated cycle.
        self.pc = static.pc
        self.opcode = static.opcode
        self.is_branch = static.is_branch

    @property
    def opclass(self) -> OpClass:
        return self.static.opclass

    @property
    def dest(self) -> str | None:
        return self.static.dest

    @property
    def srcs(self) -> tuple[str, ...]:
        return self.static.srcs

    @property
    def is_control(self) -> bool:
        return self.static.is_control

    @property
    def is_load(self) -> bool:
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        return self.static.is_store

    @property
    def is_memory(self) -> bool:
        return self.static.is_memory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.addr is not None:
            extra = f" @0x{self.addr:x}"
        if self.taken is not None:
            extra += f" taken={self.taken}"
        return f"<pc=0x{self.pc:x} {self.static}{extra}>"
