"""Trace configurations: the output of the dynamic mapper.

A ``Configuration`` records where every trace instruction was placed, how
its operands are routed, the trace's live-ins/live-outs, and the
simplified memory-instruction list the paper keeps "consisting of only
their PC, type, and their relative ordering" (Section 3.2): the PCs in
``mem_op_pcs``, each memory op's type in its placement's op class, and
the ordering in its ``mem_index``.  The trace key carries the branch
outcomes the configuration was mapped for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import Opcode, OpClass, latency_of


@dataclass(frozen=True)
class OperandSource:
    """Where a placed operand's value comes from.

    ``kind`` is one of:
      * ``"inst"``   — another placed instruction (``producer_pos`` set);
      * ``"livein"`` — a trace live-in register (``reg`` set), delivered
        through the live-in FIFOs / global bus.
    """

    kind: str
    producer_pos: int | None = None
    reg: str | None = None
    hops: int = 0  # stripe crossings from the producer (>=1 for "inst")


@dataclass
class PlacedOp:
    """One trace instruction placed on a PE."""

    pos: int               # position within the trace (0-based)
    opcode: Opcode
    opclass: OpClass
    stripe: int
    pe_index: int
    pool: str
    sources: tuple[OperandSource, ...]
    #: Role of each source, parallel to ``sources``: "base" / "value" for
    #: memory operands, "src" otherwise.  A store's address resolves when
    #: its base operand arrives, independently of its (often later) data.
    source_roles: tuple[str, ...] = ()
    dest_reg: str | None = None
    pc: int = -1
    mem_index: int | None = None          # order among the trace's memory ops

    @property
    def latency(self) -> int:
        return latency_of(self.opcode)

    @property
    def is_load(self) -> bool:
        return self.opclass is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.opclass is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.opclass is OpClass.BRANCH


@dataclass(slots=True)
class Configuration:
    """A complete mapping of one hot trace onto the fabric.

    Slotted, so no module can hang state on it: what an engine derives
    from a configuration lives in that engine.
    """

    trace_key: tuple            # (start_pc, branch outcome tuple, length)
    placements: list[PlacedOp]
    live_ins: tuple[str, ...]
    live_outs: dict[str, int]   # arch register -> producing position
    mem_op_pcs: tuple[int, ...]          # simplified memory list (PC order)
    stripes_used: int = 0
    datapath_channels_used: int = 0
    mapping_cycles: int = 0              # cycles the mapping phase took

    _by_pos: dict[int, PlacedOp] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.placements.sort(key=lambda op: op.pos)
        self._by_pos = {op.pos: op for op in self.placements}
        if not self.stripes_used and self.placements:
            self.stripes_used = 1 + max(op.stripe for op in self.placements)

    def op_at(self, pos: int) -> PlacedOp:
        return self._by_pos[pos]

    def validate(self) -> None:
        """Check structural invariants of the mapping.

        Raises ``ValueError`` when the mapping violates the fabric's
        acyclic-forward dataflow or references unknown producers — the
        property-based mapper tests call this on every generated mapping.
        """
        for op in self.placements:
            for src in op.sources:
                if src.kind == "inst":
                    if src.producer_pos not in self._by_pos:
                        raise ValueError(
                            f"op {op.pos}: unknown producer {src.producer_pos}"
                        )
                    producer = self._by_pos[src.producer_pos]
                    if producer.stripe >= op.stripe:
                        raise ValueError(
                            f"op {op.pos} (stripe {op.stripe}) consumes from "
                            f"op {producer.pos} (stripe {producer.stripe}): "
                            "dataflow must move strictly forward"
                        )
                    if src.hops != op.stripe - producer.stripe:
                        raise ValueError(
                            f"op {op.pos}: recorded hops {src.hops} != "
                            f"{op.stripe - producer.stripe}"
                        )
                elif src.kind == "livein":
                    if src.reg not in self.live_ins:
                        raise ValueError(
                            f"op {op.pos}: live-in {src.reg} not declared"
                        )
                else:
                    raise ValueError(f"op {op.pos}: bad source kind {src.kind!r}")
        for reg, pos in self.live_outs.items():
            if pos not in self._by_pos:
                raise ValueError(f"live-out {reg}: unknown producer {pos}")
