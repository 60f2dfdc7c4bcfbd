"""Program and basic-block containers.

A ``Program`` is an ordered list of labelled ``BasicBlock``s.  Linking
assigns a PC to every instruction (4 bytes apart, blocks laid out in order)
and resolves branch target labels.  The containers validate structural
invariants early so kernel bugs surface as ``ProgramError`` rather than as
mysterious simulator behaviour.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, WORD_SIZE
from repro.isa.opcodes import Opcode


class ProgramError(Exception):
    """Raised when a program violates a structural invariant."""


#: Upper bound on a single straight-line segment walk.  A run of more than
#: this many instructions without a conditional branch or HALT (possible
#: only through an unconditional-jump cycle) is recorded as an endless
#: straight run; every practical trace-length cap is far below this.
SEGMENT_WALK_CAP = 1 << 12


class StaticSegment:
    """Summary of the straight-line run starting at one PC.

    The run follows unconditional jumps and ends at the first conditional
    branch (inclusive), at a HALT, or at an unmapped PC.  ``count`` is the
    number of executable instructions in the run; for a branch-terminated
    segment it includes the branch itself and ``taken_pc`` / ``fall_pc``
    give the two successor PCs.  ``halts`` marks runs that reach HALT or
    leave the program before any branch.
    """

    __slots__ = ("count", "branch_pc", "taken_pc", "fall_pc", "halts")

    def __init__(self, count: int, branch_pc: int | None,
                 taken_pc: int, fall_pc: int, halts: bool) -> None:
        self.count = count
        self.branch_pc = branch_pc
        self.taken_pc = taken_pc
        self.fall_pc = fall_pc
        self.halts = halts


class BasicBlock:
    """A labelled straight-line instruction sequence.

    Control flow may only leave through the final instruction (a branch,
    jump, or halt) or by falling through to the next block in program order.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.instructions: list[Instruction] = []

    def append(self, inst: Instruction) -> None:
        if self.instructions and self.instructions[-1].is_control:
            if self.instructions[-1].opcode in (Opcode.JMP, Opcode.HALT):
                raise ProgramError(
                    f"block {self.label!r}: instruction after unconditional control flow"
                )
        self.instructions.append(inst)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)


class Program:
    """A linked program: blocks with assigned PCs and resolved targets."""

    def __init__(self, blocks: list[BasicBlock], name: str = "program") -> None:
        if not blocks:
            raise ProgramError("program has no blocks")
        self.name = name
        self.blocks = blocks
        self.label_pc: dict[str, int] = {}
        self.instructions: list[Instruction] = []
        self.by_pc: dict[int, Instruction] = {}
        self._link()

    def _link(self) -> None:
        seen: set[str] = set()
        pc = 0
        for block in self.blocks:
            if block.label in seen:
                raise ProgramError(f"duplicate block label {block.label!r}")
            seen.add(block.label)
            if not block.instructions:
                raise ProgramError(f"block {block.label!r} is empty")
            self.label_pc[block.label] = pc
            pc += WORD_SIZE * len(block.instructions)

        pc = 0
        for block in self.blocks:
            for inst in block.instructions:
                if inst.target is not None and inst.target not in self.label_pc:
                    raise ProgramError(
                        f"block {block.label!r}: unknown target label {inst.target!r}"
                    )
                placed = inst.with_pc(pc)
                self.instructions.append(placed)
                self.by_pc[pc] = placed
                pc += WORD_SIZE

        last = self.instructions[-1]
        if last.opcode is not Opcode.HALT:
            raise ProgramError("program must end with HALT")

        #: Lazily filled per-PC segment summaries (the program is immutable
        #: once linked, so entries never need invalidation).
        self._segments: dict[int, StaticSegment] = {}

    @property
    def entry_pc(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # Precomputed front-end metadata
    # ------------------------------------------------------------------
    def segment_from(self, pc: int) -> StaticSegment:
        """The (cached) straight-line segment summary starting at ``pc``.

        DynaSpAM's predicted-trace walk hops these summaries
        branch-to-branch instead of probing ``by_pc``
        instruction-by-instruction.  The trace-window builder feeds on
        the dynamic stream and reads them only under smart trace
        selection, through :meth:`distance_to_next_branch`.
        """
        seg = self._segments.get(pc)
        if seg is None:
            seg = self._walk_segment(pc)
            self._segments[pc] = seg
        return seg

    def _walk_segment(self, pc: int) -> StaticSegment:
        by_pc = self.by_pc
        cursor = pc
        count = 0
        while count < SEGMENT_WALK_CAP:
            inst = by_pc.get(cursor)
            if inst is None or inst.opcode is Opcode.HALT:
                return StaticSegment(count, None, -1, -1, halts=True)
            count += 1
            if inst.is_branch:
                return StaticSegment(
                    count, cursor, self.target_pc(inst),
                    cursor + WORD_SIZE, halts=False,
                )
            if inst.is_control:  # unconditional jump
                cursor = self.target_pc(inst)
            else:
                cursor += WORD_SIZE
        return StaticSegment(count, None, -1, -1, halts=False)

    def distance_to_next_branch(self, pc: int, limit: int) -> int:
        """Static instruction count from ``pc`` through the next
        conditional branch (inclusive), following unconditional jumps;
        saturates at ``limit`` when no branch is reachable that soon."""
        seg = self.segment_from(pc)
        if seg.halts or seg.branch_pc is None:
            return limit
        return seg.count if seg.count < limit else limit

    def target_pc(self, inst: Instruction) -> int:
        """Resolve the branch/jump target PC of a control instruction."""
        if inst.target is None:
            raise ProgramError(f"instruction {inst} has no target")
        return self.label_pc[inst.target]

    def static_size(self) -> int:
        return len(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"; program {self.name}"]
        pc_to_label = {pc: label for label, pc in self.label_pc.items()}
        for inst in self.instructions:
            if inst.pc in pc_to_label:
                lines.append(f"{pc_to_label[inst.pc]}:")
            lines.append(f"  0x{inst.pc:04x}  {inst}")
        return "\n".join(lines)
