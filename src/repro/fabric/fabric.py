"""The fabric dataflow timing engine.

Executes a configured trace as a dataflow schedule: every placed operation
starts when its operands arrive (from producer PEs through direct wires or
pass registers, or from live-in FIFOs over the global bus) and memory
ordering permits.  Back-to-back invocations pipeline with an initiation
interval set by the busiest PE and the FIFO depth; loop-carried values flow
from one invocation's producer directly into the next invocation's live-in
ports over the global bus (paper Section 3.1, "Trace Offloading").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.compiled import T_ALU1, T_ALU2, T_LOAD, T_STORE, TimingPlan
from repro.fabric.config import FabricConfig
from repro.fabric.configuration import Configuration, PlacedOp
from repro.fabric.fifos import FifoModel
from repro.fabric.pe import pe_busy


@dataclass
class InvocationContext:
    """Everything one invocation needs from the outside world.

    ``mem_addrs`` maps a placed op's ``mem_index`` to its effective address
    for *this* invocation (a dict, or a list indexed by ``mem_index``).
    ``dcache_access`` is a callable returning the load-to-use latency for
    an address.  ``extra_mem_wait`` provides lower bounds (e.g. waits on
    host-pipeline stores predicted by the Store-Sets unit);
    ``speculative`` selects speculative vs conservative intra-trace
    memory ordering.
    """

    start_lower_bound: int
    live_in_ready: dict[str, int]
    mem_addrs: dict[int, int] | list[int]
    dcache_access: callable
    speculative: bool = True
    extra_mem_wait: dict[int, int] = field(default_factory=dict)
    predicted_store_pos: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class MemEvent:
    """Timing of one memory operation inside an invocation.

    For stores, ``addr_known`` (base operand arrival) can precede
    ``finish`` (data available) by many cycles; the distinction drives both
    conservative ordering and violation detection.
    """

    pos: int
    mem_index: int
    addr: int
    kind: str            # "load" | "store"
    start: int = 0       # cycle the op issues (loads) / enters buffer
    addr_known: int = 0  # cycle the effective address resolves
    finish: int = 0      # data available (stores) / value returned (loads)


@dataclass(slots=True)
class InvocationResult:
    """Timing outcome of one invocation."""

    start: int
    complete: int
    finish_times: dict[int, int]          # position -> finish cycle
    liveout_ready: dict[str, int]         # register -> cycle on the bus
    mem_events: list[MemEvent]
    violations: list[tuple[int, int]]     # (load pos, store pos) intra-trace
    structural_ii: int
    fu_ops: int
    datapath_transfers: int
    fifo_ops: int
    #: Wall-clock cycles this invocation adds to the fabric's busy time
    #: (pipelined invocations overlap, so this is the start-to-start gap,
    #: not the full latency) — the leakage-accounting basis.
    occupancy_cycles: int = 0


class SpatialFabric:
    """One reconfigurable fabric instance."""

    def __init__(
        self,
        config: FabricConfig | None = None,
        fabric_id: int = 0,
        bus=None,
    ) -> None:
        self.config = config or FabricConfig()
        self.fabric_id = fabric_id
        #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
        self.bus = bus
        self.fifo = FifoModel(self.config.fifo_depth)

        # Current configuration state.
        self.current_key: tuple | None = None
        self.configured_at: int = 0
        self.last_invocation_start: int = 0
        self.invocations_on_current: int = 0

        # Lifetime statistics (Table 5).
        self.reconfigurations: int = 0
        self.total_invocations: int = 0
        self.lifetime_invocations: list[int] = []

        # Occupancy statistics (repro.obs.accounting): ``(stripe, placed
        # ops)`` for every stripe the current configuration touches.  A
        # lifetime's invocations are charged to the books below when it
        # closes (``configure`` or ``flush_lifetime``).
        self._stripe_increments: tuple[tuple[int, int], ...] = ()
        #: stripe -> sum over invocations of ops placed on that stripe.
        self.stripe_placed_invocations: list[int] = (
            [0] * self.config.num_stripes)
        #: stripe -> invocations with at least one op on that stripe.
        self.stripe_invocations: list[int] = [0] * self.config.num_stripes

    # ------------------------------------------------------------------
    # Configuration management
    # ------------------------------------------------------------------
    def is_configured_for(self, trace_key: tuple) -> bool:
        return self.current_key == trace_key

    def configure(self, configuration: Configuration, cycle: int) -> int:
        """Load a configuration; returns the cycle the fabric is ready."""
        self._close_lifetime()
        if self.bus is not None:
            self.bus.emit(
                "fabric.reconfig",
                cycle=cycle,
                fabric=self.fabric_id,
                key=configuration.trace_key,
                evicted=self.current_key,
                stripes=configuration.stripes_used,
            )
        self.current_key = configuration.trace_key
        self.reconfigurations += 1
        placed = [0] * self.config.num_stripes
        for op in configuration.placements:
            placed[op.stripe] += 1
        self._stripe_increments = tuple(
            (stripe, count) for stripe, count in enumerate(placed) if count
        )
        self.last_invocation_start = cycle
        self.fifo = FifoModel(self.config.fifo_depth)
        self.configured_at = cycle
        return cycle + self.config.reconfig_latency(configuration.stripes_used)

    def flush_lifetime(self) -> list[int]:
        """Close the books on the current configuration (end of run)."""
        self._close_lifetime()
        return self.lifetime_invocations

    def _close_lifetime(self) -> None:
        """Record the current configuration's invocations as one lifetime
        and charge them to the occupancy statistics."""
        invocations = self.invocations_on_current
        if not invocations:
            return
        self.invocations_on_current = 0
        self.lifetime_invocations.append(invocations)
        for stripe, placed in self._stripe_increments:
            self.stripe_placed_invocations[stripe] += placed * invocations
            self.stripe_invocations[stripe] += invocations

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, configuration: Configuration, ctx: InvocationContext
    ) -> InvocationResult:
        """Run one invocation of the currently loaded configuration."""
        if self.current_key != configuration.trace_key:
            raise ValueError("fabric is not configured for this trace")
        cfg = self.config
        bus = cfg.global_bus_latency

        # Invocation admission: FIFO space and pipelined initiation.
        structural_ii = max(
            (pe_busy(op.opclass, op.latency)
             for op in configuration.placements),
            default=1,
        )
        start = max(ctx.start_lower_bound, self.fifo.admit_ready_cycle())
        if self.invocations_on_current:
            start = max(start, self.last_invocation_start + structural_ii)
            occupancy = start - self.last_invocation_start
        else:
            occupancy = None  # charged below as the full first latency

        finish: dict[int, int] = {}
        mem_events: list[MemEvent] = []
        violations: list[tuple[int, int]] = []
        datapath_transfers = 0
        fifo_ops = 0

        # Stores seen so far in trace order: (pos, mem_index, addr, finish).
        older_stores: list[MemEvent] = []

        for op in configuration.placements:
            ready = start
            base_arrival = start
            roles = op.source_roles or ("src",) * len(op.sources)
            for src, role in zip(op.sources, roles):
                if src.kind == "inst":
                    arrival = finish[src.producer_pos] + max(0, src.hops - 1)
                    datapath_transfers += src.hops
                else:  # live-in over the global bus
                    arrival = ctx.live_in_ready.get(src.reg, start) + bus
                    fifo_ops += 1
                if arrival > ready:
                    ready = arrival
                if role == "base" and arrival > base_arrival:
                    base_arrival = arrival

            if op.is_load or op.is_store:
                event = MemEvent(
                    pos=op.pos,
                    mem_index=op.mem_index,
                    addr=ctx.mem_addrs[op.mem_index],
                    kind="load" if op.is_load else "store",
                )
                extra = ctx.extra_mem_wait.get(op.mem_index, start)
                if op.is_store:
                    self._time_store(event, base_arrival, ready, extra,
                                     older_stores, ctx.speculative)
                    older_stores.append(event)
                else:
                    violation = self._time_load(
                        op, event, ready, extra, older_stores, ctx
                    )
                    if violation is not None:
                        violations.append((op.pos, violation))
                mem_events.append(event)
                finish[op.pos] = event.finish
            else:
                finish[op.pos] = ready + op.latency

        liveout_ready = {}
        for reg, pos in configuration.live_outs.items():
            liveout_ready[reg] = finish[pos] + bus
            fifo_ops += 1

        complete = start
        if finish:
            complete = max(finish.values())
        # Branch results and live-outs drain through the output FIFOs.
        complete += bus

        self._retire(start, complete)

        if occupancy is None:
            occupancy = complete - start
        return InvocationResult(
            start=start,
            complete=complete,
            finish_times=finish,
            liveout_ready=liveout_ready,
            mem_events=mem_events,
            violations=violations,
            structural_ii=structural_ii,
            fu_ops=len(configuration.placements),
            datapath_transfers=datapath_transfers,
            fifo_ops=fifo_ops,
            occupancy_cycles=max(1, occupancy),
        )

    def walk(
        self,
        configuration: Configuration,
        plan: TimingPlan,
        start_lower_bound: int,
        reg_ready: dict[str, int],
        mem_addrs: list[int],
        dcache_access,
        speculative: bool,
        extra_mem_wait: dict[int, int],
        predicted_store_pos: dict[int, int],
    ) -> tuple:
        """Plan-driven twin of :meth:`execute`, run by the fast tier's
        offload: one pass over ``plan``, the configuration's slot-indexed
        :class:`~repro.fabric.compiled.TimingPlan`, which the caller owns.

        Takes the invocation's inputs as arguments: ``reg_ready`` is the
        host scoreboard's register -> ready-cycle dict, read once per
        live-in slot (a register it lacks is ready at 0, as
        ``ready_cycle`` reads it; ``Configuration.validate()`` makes every
        live-in source a configured live-in, so this is exactly the
        reference's per-invocation ``live_in_ready``), and ``mem_addrs``
        is indexed by ``mem_index``.  Returns plain values: ``(start,
        complete, occupancy, slots, stores, loads, violations)``.
        ``slots`` is the filled slot list, so a live-out's cycle on the
        bus is ``slots[slot] + global_bus_latency`` for its ``(reg,
        slot)`` in the plan's ``liveouts``; ``stores`` holds one ``(pos,
        mem_index, addr, addr_known, finish)`` per store and ``loads`` one
        ``(mem_index, start)`` per load, in position order.

        Bit-identical by construction.  An op's ready cycle is the
        reference's max over the same sources and ``start``: a live-in
        slot holds its bus arrival raised to ``start``, and a producer
        slot is already past ``start``.  Every slot feeds some op that
        finishes after it (latencies are positive), so the list's max is
        the latest op finish.  The FIFO/datapath totals are
        per-configuration constants.  Memory ops inline
        ``_time_store``/``_time_load`` without rescanning older stores,
        relying on one invariant: a store's address cycle is at least
        every older store's (``_time_store`` orders it behind them), and
        without speculation so is its finish (plus one).  The youngest
        store walked so far therefore carries the running maximum of
        both, and the scans reduce to two running values.  The youngest
        same-address older store and the Store-Sets-predicted store are
        dict lookups.  The FIFO admission and ``_retire`` are inlined.
        ``tests/engine`` holds the two paths equal.
        """
        if self.current_key != configuration.trace_key:
            raise ValueError("fabric is not configured for this trace")
        bus = self.config.global_bus_latency
        fifo = self.fifo
        depth = fifo.depth
        ring = fifo._complete_ring

        start = start_lower_bound
        if fifo._count >= depth:
            admit = ring[fifo._head] + 1
            if admit > start:
                start = admit
        last_start = self.last_invocation_start
        invocations = self.invocations_on_current
        if invocations:
            pipelined = last_start + plan.structural_ii
            if pipelined > start:
                start = pipelined

        slots: list[int] = []
        fill = slots.append
        for reg in plan.live_ins:
            arrival = reg_ready.get(reg, 0) + bus
            fill(arrival if arrival > start else start)
        stores: list[tuple] = []
        loads: list[tuple[int, int]] = []
        violations: list[tuple[int, int]] = []
        # Youngest older store's address cycle and finish: the running
        # maxima over every older store (``start`` is below both bounds
        # they feed, so it stands in before the first store).
        store_addr_known = start
        store_finish = start
        # Store tuples: (pos, mem_index, addr, addr_known, finish).
        store_at_addr: dict[int, tuple] = {}   # youngest per address
        store_at_pos: dict[int, tuple] = {}

        for kind, a, b, c, d in plan.steps:
            if kind == T_ALU2:
                ready = slots[a] + b
                other = slots[c] + d
                fill(ready if ready > other else other)
            elif kind == T_ALU1:
                fill(slots[a] + b)
            elif kind == T_LOAD:
                # a: srcs, b: mem_index, c: pos.
                ready = start
                for slot, add in a:
                    arrival = slots[slot] + add
                    if arrival > ready:
                        ready = arrival
                extra = extra_mem_wait.get(b, start)
                if extra > ready:
                    ready = extra
                if not speculative:
                    if store_finish > ready:
                        ready = store_finish
                elif predicted_store_pos:
                    predicted = store_at_pos.get(predicted_store_pos.get(b))
                    if predicted is not None and predicted[4] > ready:
                        ready = predicted[4]
                addr = mem_addrs[b]
                alias = store_at_addr.get(addr)
                if alias is None:
                    done = ready + 1 + dcache_access(addr)
                elif speculative and alias[3] > ready:
                    violations.append((c, alias[0]))
                    done = alias[4] + 1
                elif alias[4] > ready:
                    done = alias[4] + 1       # in-flight forward
                else:
                    done = ready + 1          # buffered forward
                loads.append((b, ready))
                fill(done)
            elif kind == T_STORE:
                # a: base srcs, b: value srcs, c: mem_index, d: pos.
                base_arrival = start
                for slot, add in a:
                    arrival = slots[slot] + add
                    if arrival > base_arrival:
                        base_arrival = arrival
                ready = base_arrival
                for slot, add in b:
                    arrival = slots[slot] + add
                    if arrival > ready:
                        ready = arrival
                addr_known = extra_mem_wait.get(c, start)
                if base_arrival > addr_known:
                    addr_known = base_arrival
                if store_addr_known > addr_known:
                    addr_known = store_addr_known
                done = (addr_known if addr_known > ready else ready) + 1
                if not speculative and store_finish + 1 > done:
                    done = store_finish + 1
                addr = mem_addrs[c]
                store = (d, c, addr, addr_known, done)
                store_addr_known = addr_known
                store_finish = done
                store_at_addr[addr] = store
                store_at_pos[d] = store
                stores.append(store)
                fill(done)
            else:
                # a: srcs (none, or more than two), b: latency.
                ready = start
                for slot, add in a:
                    arrival = slots[slot] + add
                    if arrival > ready:
                        ready = arrival
                fill(ready + b)

        complete = (max(slots) if slots else start) + bus

        # Inlined _retire: FIFO slot and pipelining state.
        head = fifo._head
        ring[head] = complete
        head += 1
        fifo._head = 0 if head == depth else head
        if fifo._count < depth:
            fifo._count += 1
        self.last_invocation_start = start
        self.invocations_on_current = invocations + 1
        self.total_invocations += 1
        occupancy = start - last_start if invocations else complete - start
        return (start, complete, occupancy if occupancy > 1 else 1, slots,
                stores, loads, violations)

    def _retire(self, start: int, complete: int) -> None:
        """Book one invocation: FIFO slot and pipelining state."""
        self.fifo.push(complete)
        self.last_invocation_start = start
        self.invocations_on_current += 1
        self.total_invocations += 1

    @staticmethod
    def _time_store(
        event: MemEvent,
        base_arrival: int,
        data_arrival: int,
        extra_wait: int,
        older_stores: list[MemEvent],
        speculative: bool,
    ) -> None:
        """Assign timing to a store.

        The address resolves when the base operand arrives; the memory
        reservation buffer allocates entries in order, so the address is
        also ordered behind older stores' address resolutions.  Data may
        arrive much later.  Without speculation, store-store *execution*
        order is preserved outright (Figure 8's "w/o speculation" series).
        """
        addr_known = max(base_arrival, extra_wait)
        for store in older_stores:
            if store.addr_known > addr_known:
                addr_known = store.addr_known
        event.start = addr_known
        event.addr_known = addr_known
        event.finish = max(addr_known, data_arrival) + 1
        if not speculative:
            for store in older_stores:
                if store.finish + 1 > event.finish:
                    event.finish = store.finish + 1

    def _time_load(
        self,
        op: PlacedOp,
        event: MemEvent,
        ready: int,
        extra_wait: int,
        older_stores: list[MemEvent],
        ctx: InvocationContext,
    ) -> int | None:
        """Assign timing to a load; returns a violating store pos or None.

        Conservative mode preserves *all* load-store orderings: the load
        may not execute until every older store has executed (its data is
        in the reservation buffer).  Speculative mode: the load waits only
        for the store the Store-Sets unit predicts; an older aliasing store
        whose address resolves *after* the load issued is a memory-order
        violation.  A store whose address was known in time forwards its
        data without a violation (a normal LSQ forward).
        """
        ready = max(ready, extra_wait)
        if not ctx.speculative:
            for store in older_stores:
                if store.finish > ready:
                    ready = store.finish
        else:
            predicted_pos = ctx.predicted_store_pos.get(op.mem_index)
            if predicted_pos is not None:
                for store in older_stores:
                    if store.pos == predicted_pos and store.finish > ready:
                        ready = store.finish

        event.start = ready
        event.addr_known = ready
        violation: int | None = None
        alias: MemEvent | None = None
        for store in reversed(older_stores):
            if store.addr == event.addr:
                alias = store
                break
        if alias is not None:
            if ctx.speculative and alias.addr_known > ready:
                violation = alias.pos
                event.finish = alias.finish + 1
            elif alias.finish > ready:
                event.finish = alias.finish + 1   # in-flight forward
            else:
                event.finish = ready + 1          # buffered forward
        else:
            event.finish = ready + 1 + ctx.dcache_access(event.addr)
        return violation

