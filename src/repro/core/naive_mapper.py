"""Naive in-order baseline mapper (CCA [10] / DIF [14] style).

Places trace instructions in strict program order: each instruction goes to
the first (shallowest) stripe that has a free PE of the right kind and can
deliver its operands, without any resource-aware prioritization — the
behaviour Section 2.2 shows failing on Figure 2's examples.  Used by the
ablation benchmark comparing mapping quality against the resource-aware
scheduler.
"""

from __future__ import annotations

from repro.core.mapper import analyze_trace, MappingFailure
from repro.core.priority import priority_gen, PRIORITY_INFEASIBLE
from repro.core.tables import MappingTables, pos_token
from repro.fabric.config import FabricConfig
from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.fabric.stripe import build_stripes
from repro.isa.instructions import DynamicInstruction


class NaiveMapper:
    """Strict program-order, first-fit mapping."""

    def __init__(
        self, fabric_config: FabricConfig | None = None, bus=None
    ) -> None:
        self.fabric_config = fabric_config or FabricConfig()
        #: Built once: mapping only reads the stripes (PEs are frozen),
        #: and ``MappingTables`` copies the channel capacities.
        self._stripes = build_stripes(self.fabric_config)
        self._stripe_channels = [s.pass_registers for s in self._stripes]
        self.attempts = 0
        self.failures = 0
        #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
        self.bus = bus

    def map_trace(
        self, insts: list[DynamicInstruction], trace_key: tuple
    ) -> Configuration | None:
        self.attempts += 1
        if self.bus is not None:
            self.bus.emit(
                "map.start", key=trace_key, instructions=len(insts)
            )
        try:
            configuration = self._map(insts, trace_key)
        except MappingFailure as exc:
            self.failures += 1
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

    def _map(self, insts, trace_key) -> Configuration:
        fcfg = self.fabric_config
        ops, live_ins, last_def, branch_outcomes = analyze_trace(insts)
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

        stripes = self._stripes
        tables = MappingTables(fcfg.num_stripes, self._stripe_channels)
        placed: dict[int, PlacedOp] = {}
        free_pes = {
            (s.index, pe.index): pe for s in stripes for pe in s.pes
        }
        consumers: dict[int, list[int]] = {}
        for op in ops:
            for token in op.operand_tokens:
                if token[0] == "pos":
                    consumers.setdefault(token[1], []).append(op.pos)
        # Propagation bookkeeping: the hardware propagates potential
        # live-outs identically; only the placement *policy* differs.
        highest_propagated = 0

        for op in ops:
            min_stripe = 0
            for token in op.operand_tokens:
                if token[0] == "pos":
                    min_stripe = max(min_stripe, placed[token[1]].stripe + 1)
            placed_ok = False
            for stripe_index in range(min_stripe, fcfg.num_stripes):
                # Keep propagation in step with how deep placement has gone.
                while highest_propagated < stripe_index:
                    live = self._live_tokens(placed, ops, consumers, last_def)
                    tables.propagate(highest_propagated, live)
                    highest_propagated += 1
                for pe in stripes[stripe_index]:
                    if (stripe_index, pe.index) not in free_pes:
                        continue
                    if pe.pool != op.pool:
                        continue
                    plan = priority_gen(
                        pe, op.operand_tokens, tables, stripe_index
                    )
                    if plan.score == PRIORITY_INFEASIBLE:
                        continue
                    sources = []
                    for operand in plan.operands:
                        token = operand.token
                        if operand.action == "livein":
                            sources.append(
                                OperandSource("livein", reg=token[1])
                            )
                        else:
                            if operand.action == "route":
                                tables.allocate_route(token, stripe_index)
                            producer_pos = token[1]
                            hops = stripe_index - placed[producer_pos].stripe
                            sources.append(
                                OperandSource(
                                    "inst",
                                    producer_pos=producer_pos,
                                    hops=hops,
                                )
                            )
                            tables.note_use(token, stripe_index)
                    dyn = op.dyn
                    placed[op.pos] = PlacedOp(
                        pos=op.pos,
                        opcode=dyn.opcode,
                        opclass=dyn.opclass,
                        stripe=stripe_index,
                        pe_index=pe.index,
                        pool=pe.pool,
                        sources=tuple(sources),
                        source_roles=tuple(op.operand_roles),
                        dest_reg=dyn.dest,
                        pc=dyn.pc,
                        predicted_taken=bool(dyn.taken) if dyn.is_branch else None,
                        mem_index=op.mem_index,
                    )
                    if dyn.dest is not None and dyn.dest != "r0":
                        tables.define(pos_token(op.pos), stripe_index)
                    del free_pes[(stripe_index, pe.index)]
                    placed_ok = True
                    break
                if placed_ok:
                    break
            if not placed_ok:
                raise MappingFailure(
                    "no_feasible_pe", f"no feasible PE for op {op.pos}"
                )

        live_outs = {reg: pos for reg, pos in last_def.items() if pos in placed}
        mem_pcs, mem_kinds = [], []
        for op in ops:
            if op.mem_index is not None:
                mem_pcs.append(op.dyn.pc)
                mem_kinds.append("load" if op.dyn.is_load else "store")
        configuration = Configuration(
            trace_key=trace_key,
            placements=list(placed.values()),
            live_ins=live_ins,
            live_outs=live_outs,
            branch_outcomes=branch_outcomes,
            mem_op_pcs=tuple(mem_pcs),
            mem_op_kinds=tuple(mem_kinds),
            datapath_channels_used=tables.total_channels_allocated,
            mapping_cycles=len(ops),  # one instruction per cycle, in order
        )
        configuration.validate()
        return configuration

    @staticmethod
    def _live_tokens(placed, ops, consumers, last_def):
        final_defs = set(last_def.values())
        live = set()
        placed_positions = set(placed)
        for pos in placed_positions:
            if placed[pos].dest_reg is None:
                continue
            pending = any(
                c not in placed_positions for c in consumers.get(pos, ())
            )
            if pending or pos in final_defs:
                live.add(pos_token(pos))
        return live
