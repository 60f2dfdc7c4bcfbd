"""Resource-aware dynamic mapping (paper Algorithms 1 and 3).

The mapper replays, stripe by stripe, what the augmented issue unit does
during the mapping phase:

1. The *scheduling frontier* is the stripe currently being filled; its PEs
   are mapped one-to-one onto the host's functional units (they have the
   same pool mix, Table 4).
2. Ready instructions are those whose in-trace producers are all placed in
   earlier stripes — exactly the instructions the reservation station would
   wake up, since a producer issues one scheduling step before its consumer
   can.
3. For every (PE, ready instruction) pair, ``PriorityGen`` (Algorithm 2)
   scores feasibility and routing cost; the host ``PriorityEncoder``
   selects per PE, breaking ties oldest-first.
4. ``UpdateTables`` (Algorithm 3) allocates routes and updates the
   ReuseSet/OverallUsage state; on frontier advance, still-live values are
   propagated forward as potential live-outs.

The mapper also accounts the cycles the mapping phase occupies the issue
unit: each scheduling step costs ``ceil(selected / issue width)`` cycles
plus a pause while unpipelined units finish (Section 4.1, Special Issues).

Steps 1-3 are the placement policy, ``_schedule``.  Everything around it
(trace analysis, the FIFO limits, operand routing in ``_place``,
live-value propagation, the ``Configuration`` and the ``map.*`` events)
is shared with the naive in-order baseline, which overrides only
``_schedule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.priority import (
    priority_gen,
    score_name,
    PlacementPlan,
)
from repro.core.tables import MappingTables, livein_token, pos_token, Token
from repro.fabric.config import FabricConfig
from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.fabric.stripe import build_stripes
from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import FU_PIPELINED, OpClass, latency_of
from repro.ooo.config import CoreConfig
from repro.ooo.fus import POOL_OF
from repro.ooo.rs import PriorityEncoder

#: Op classes that vanish when a trace is linearized (no PE needed).
TRANSPARENT = (OpClass.JUMP, OpClass.NOP)


@dataclass
class _TraceOp:
    """Pre-analyzed trace instruction."""

    pos: int
    dyn: DynamicInstruction
    operand_tokens: list[Token]
    operand_roles: list[str]
    pool: str
    mem_index: int | None

    @property
    def seq(self) -> int:  # host priority rule: oldest (trace order) first
        return self.pos


def analyze_trace(insts: list[DynamicInstruction]):
    """Build intra-trace dependence structure.

    Returns (ops, live_ins, live_out_defs) where
    ``live_out_defs`` maps each architectural register to the position of
    its final definition inside the trace.
    """
    last_def: dict[str, int] = {}
    ops: list[_TraceOp] = []
    live_ins: list[str] = []
    seen_live_ins: set[str] = set()
    mem_index = 0
    for pos, dyn in enumerate(insts):
        static = dyn.static
        if static.opclass in TRANSPARENT:
            continue
        tokens: list[Token] = []
        roles: list[str] = []
        for src_index, reg in enumerate(static.srcs):
            if reg == "r0":
                continue  # hardwired zero: no operand to deliver
            if static.is_memory:
                roles.append("base" if src_index == 0 else "value")
            else:
                roles.append("src")
            if reg in last_def:
                tokens.append(pos_token(last_def[reg]))
            else:
                tokens.append(livein_token(reg))
                if reg not in seen_live_ins:
                    seen_live_ins.add(reg)
                    live_ins.append(reg)
        this_mem = None
        if static.is_memory:
            this_mem = mem_index
            mem_index += 1
        ops.append(
            _TraceOp(pos, dyn, tokens, roles, POOL_OF[static.opclass], this_mem)
        )
        if static.dest is not None and static.dest != "r0":
            last_def[static.dest] = pos
    return ops, tuple(live_ins), dict(last_def)


#: Closed vocabulary of mapping-failure reasons.  ``map.fail`` events and
#: decision records aggregate on these codes (bounded label cardinality);
#: the human-readable message travels separately as ``detail``.
MAP_FAIL_REASONS: dict[str, str] = {
    "too_many_live_ins": "trace needs more live-in FIFOs than the fabric has",
    "too_many_live_outs": "trace defines more live-outs than the fabric "
                          "can drain",
    "out_of_stripes": "the scheduling frontier ran past the last stripe",
    "deadlock": "no unplaced instruction was ready on any stripe",
    "no_feasible_pe": "an instruction fit no PE in the current stripe",
}


class MappingFailure(Exception):
    """Raised internally when a trace cannot be mapped.

    ``reason`` must come from :data:`MAP_FAIL_REASONS`; ``detail`` is the
    free-form human message (what ``str(exc)`` returns).
    """

    def __init__(self, reason: str, detail: str | None = None) -> None:
        if reason not in MAP_FAIL_REASONS:
            raise ValueError(f"unregistered mapping-failure reason {reason!r}")
        super().__init__(detail if detail is not None else reason)
        self.reason = reason
        self.detail = detail if detail is not None else reason


class ResourceAwareMapper:
    """The DynaSpAM mapper: OOO select logic + fabric priority scores."""

    def __init__(
        self,
        fabric_config: FabricConfig | None = None,
        core_config: CoreConfig | None = None,
        use_priority_scores: bool = True,
        bus=None,
    ) -> None:
        self.fabric_config = fabric_config or FabricConfig()
        self.core_config = core_config or CoreConfig()
        #: Built once: mapping only reads the stripes (PEs are frozen),
        #: and ``MappingTables`` copies the channel capacities.
        self._stripes = build_stripes(self.fabric_config)
        self._stripe_channels = [s.pass_registers for s in self._stripes]
        self.encoder = PriorityEncoder()
        #: Ablation knob: with False, selection keeps the feasibility check
        #: but ignores the Table 2 routing preferences (pure host
        #: oldest-first among feasible instructions).
        self.use_priority_scores = use_priority_scores
        #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
        self.bus = bus

    # ------------------------------------------------------------------
    def map_trace(
        self, insts: list[DynamicInstruction], trace_key: tuple
    ) -> Configuration | None:
        """Map a trace; returns None if no feasible mapping exists."""
        if self.bus is not None:
            self.bus.emit(
                "map.start", key=trace_key, instructions=len(insts)
            )
        try:
            configuration = self._map(insts, trace_key)
        except MappingFailure as exc:
            if self.bus is not None:
                self.bus.emit(
                    "map.fail",
                    key=trace_key,
                    reason=exc.reason,
                    detail=str(exc),
                )
            return None
        if self.bus is not None:
            self.bus.emit(
                "map.done",
                key=trace_key,
                mapping_cycles=configuration.mapping_cycles,
                placements=len(configuration.placements),
                live_ins=len(configuration.live_ins),
                live_outs=len(configuration.live_outs),
            )
        return configuration

    # ------------------------------------------------------------------
    def _map(self, insts, trace_key) -> Configuration:
        """The frame every placement policy shares: trace analysis, the
        FIFO limits, the tables, and the configuration ``_schedule``
        fills in."""
        fcfg = self.fabric_config
        ops, live_ins, last_def = analyze_trace(insts)

        if len(live_ins) > fcfg.livein_fifos:
            raise MappingFailure(
                "too_many_live_ins",
                f"{len(live_ins)} live-ins > {fcfg.livein_fifos} FIFOs",
            )
        if len(last_def) > fcfg.liveout_fifos:
            raise MappingFailure(
                "too_many_live_outs",
                f"{len(last_def)} live-outs > {fcfg.liveout_fifos} FIFOs",
            )

        tables = MappingTables(fcfg.num_stripes, self._stripe_channels)
        placed: dict[int, PlacedOp] = {}
        consumers: dict[int, list[int]] = {}
        for op in ops:
            for token in op.operand_tokens:
                if token[0] == "pos":
                    consumers.setdefault(token[1], []).append(op.pos)
        mapping_cycles = self._schedule(
            ops, placed, tables, consumers, last_def
        )

        live_outs = {reg: pos for reg, pos in last_def.items() if pos in placed}
        configuration = Configuration(
            trace_key=trace_key,
            placements=list(placed.values()),
            live_ins=live_ins,
            live_outs=live_outs,
            mem_op_pcs=tuple(
                op.dyn.pc for op in ops if op.mem_index is not None
            ),
            datapath_channels_used=tables.total_channels_allocated,
            mapping_cycles=mapping_cycles,
        )
        configuration.validate()
        return configuration

    # ------------------------------------------------------------------
    def _schedule(self, ops, placed, tables, consumers, last_def) -> int:
        """The placement policy: put every op of ``ops`` into ``placed``
        (through :meth:`_place`) and return the mapping cycles, or raise
        :class:`MappingFailure`.  Here the scheduling frontier fills the
        stripes one by one with the ops the host would wake up."""
        num_stripes = self.fabric_config.num_stripes
        unplaced = {op.pos: op for op in ops}
        mapping_cycles = 0
        frontier = 0
        while unplaced:
            if frontier >= num_stripes:
                raise MappingFailure(
                    "out_of_stripes",
                    f"frontier passed stripe {num_stripes - 1} with "
                    f"{len(unplaced)} ops unplaced",
                )
            selected = self._fill_stripe(
                self._stripes[frontier], frontier, unplaced, placed, tables
            )
            if selected:
                mapping_cycles += self._step_cycles(selected)
            elif not self._any_ready(unplaced, placed):
                raise MappingFailure(
                    "deadlock", "deadlock: no instruction is ready"
                )
            # Advance the frontier: propagate still-live values forward.
            # Boundary 0 holds no value to carry (nothing defines one
            # there), so the first advance propagates nothing.
            if frontier:
                live_tokens = self._live_tokens(placed, consumers, last_def)
                tables.propagate(frontier, live_tokens)
            if self.bus is not None:
                self.bus.emit(
                    "map.stripe",
                    stripe=frontier,
                    selected=len(selected),
                    offset=mapping_cycles,
                    remaining=len(unplaced),
                )
            frontier += 1
            mapping_cycles += 1  # frontier advance
        return mapping_cycles

    # ------------------------------------------------------------------
    def _fill_stripe(self, stripe, frontier, unplaced, placed, tables):
        """One scheduling step: select instructions for the frontier PEs."""
        ready = [
            op
            for op in unplaced.values()
            if all(
                token[0] != "pos" or token[1] in placed
                for token in op.operand_tokens
            )
        ]
        selected: list[_TraceOp] = []
        plans: dict[int, PlacementPlan] = {}
        used_pes: set[int] = set()
        for pe in stripe:
            candidates = [op for op in ready if op.pool == pe.pool]
            if not candidates:
                continue

            def score(op, _pe=pe):
                plan = priority_gen(_pe, op.operand_tokens, tables, frontier)
                plans[op.pos] = plan
                if not self.use_priority_scores:
                    return 0 if plan.score >= 0 else -1
                return plan.score

            choice = self.encoder.select(candidates, score=score)
            if choice is None:
                continue
            plan = plans[choice.pos]
            self._place(choice, pe, frontier, plan, placed, tables)
            used_pes.add(pe.index)
            del unplaced[choice.pos]
            ready.remove(choice)
            selected.append(choice)
            if self.bus is not None:
                self.bus.emit(
                    "map.place",
                    pos=choice.pos,
                    pc=choice.dyn.pc,
                    stripe=frontier,
                    pe=pe.index,
                    pool=pe.pool,
                    score=score_name(plan.score),
                )
        return selected

    # ------------------------------------------------------------------
    def _place(self, op, pe, frontier, plan, placed, tables) -> None:
        """Commit a selection: UpdateTables (Algorithm 3) + record."""
        sources = []
        for operand in plan.operands:
            token = operand.token
            if operand.action == "livein":
                sources.append(OperandSource("livein", reg=token[1]))
            else:
                if operand.action == "route":
                    tables.allocate_route(token, frontier)
                producer_pos = token[1]
                hops = frontier - placed[producer_pos].stripe
                sources.append(
                    OperandSource("inst", producer_pos=producer_pos, hops=hops)
                )
                tables.note_use(token, frontier)

        dyn = op.dyn
        placed[op.pos] = PlacedOp(
            pos=op.pos,
            opcode=dyn.opcode,
            opclass=dyn.opclass,
            stripe=frontier,
            pe_index=pe.index,
            pool=pe.pool,
            sources=tuple(sources),
            source_roles=tuple(op.operand_roles),
            dest_reg=dyn.dest,
            pc=dyn.pc,
            mem_index=op.mem_index,
        )
        if dyn.dest is not None and dyn.dest != "r0":
            tables.define(pos_token(op.pos), frontier)

    # ------------------------------------------------------------------
    @staticmethod
    def _any_ready(unplaced, placed) -> bool:
        return any(
            all(t[0] != "pos" or t[1] in placed for t in op.operand_tokens)
            for op in unplaced.values()
        )

    def _step_cycles(self, selected) -> int:
        """Issue-unit cycles one scheduling step occupies (Section 4.1)."""
        width = self.core_config.issue_width
        cycles = math.ceil(len(selected) / width)
        # Pause until unpipelined units finish before the frontier advances.
        stall = 0
        for op in selected:
            opclass = op.dyn.opclass
            if not FU_PIPELINED[opclass]:
                stall = max(stall, latency_of(op.dyn.opcode) - 1)
        return cycles + stall

    # ------------------------------------------------------------------
    def _live_tokens(self, placed, consumers, last_def):
        """Tokens worth propagating: values an unplaced op still needs and
        potential live-outs (final definitions of architectural
        registers)."""
        live: set[Token] = set()
        final_defs = set(last_def.values())
        for pos, placement in placed.items():
            if placement.dest_reg is None:
                continue
            has_pending_consumer = any(
                c not in placed for c in consumers.get(pos, ())
            )
            if has_pending_consumer or pos in final_defs:
                live.add(pos_token(pos))
        return live
