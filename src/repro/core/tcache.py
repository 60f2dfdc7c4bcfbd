"""T-Cache: hot-trace detection from the committed instruction stream.

A trace is anchored at the instruction following a committed conditional
branch (or at program start) and extends through at most three conditional
branches, capped at a preset length (paper Section 3.1: "DynaSpAM only
tracks three branch instructions in the sequence"; Figure 7 sweeps the cap
from 16 to 40).  Its identity is ``(anchor PC, branch-outcome tuple)``.
On every trace close the T-Cache bumps a saturating counter for that
identity; past the threshold the trace is flagged hot.  Counters are
periodically cleared so stale traces do not hold the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import DynamicInstruction
from repro.isa.opcodes import Opcode

#: Closed vocabulary of window-close reasons.  ``tcache.window`` decision
#: records aggregate on these codes.
WINDOW_CLOSE_REASONS: dict[str, str] = {
    "branch_limit": "the window reached its conditional-branch budget",
    "smart_close": "static lookahead closed at a branch because the next "
                   "block could not fit under the length cap",
    "length_cap": "the window hit the trace-length cap",
}


@dataclass
class TraceWindow:
    """A closed candidate trace: a run of committed instructions."""

    anchor_pc: int
    instructions: list[DynamicInstruction] = field(default_factory=list)
    #: Conditional branches appended so far (tracked incrementally: the
    #: builder probes this on every committed instruction).
    branches: int = 0
    #: Why the builder closed this window — a :data:`WINDOW_CLOSE_REASONS`
    #: key, set at close time (None while the window is still open).
    close_reason: str | None = None

    @property
    def outcomes(self) -> tuple[bool, ...]:
        return tuple(
            bool(d.taken) for d in self.instructions if d.is_branch
        )

    @property
    def key(self) -> tuple:
        return (self.anchor_pc, self.outcomes, len(self.instructions))

    @property
    def length(self) -> int:
        return len(self.instructions)


class TraceWindowBuilder:
    """Streaming splitter of the committed stream into candidate traces.

    Trace anchors sit immediately after a committed conditional branch (or
    at program start).  A window closes at its third conditional branch or
    at the length cap; if the cap lands mid-block, the instructions until
    the next branch commit belong to no trace (they always execute on the
    host — the effect behind Figure 7's coverage dips for NW and SRAD),
    and the next window anchors after that branch.
    """

    def __init__(
        self,
        max_length: int = 32,
        max_branches: int = 3,
        program=None,
    ) -> None:
        if max_length < 1:
            raise ValueError("trace length cap must be positive")
        if max_branches < 1:
            raise ValueError("trace branch budget must be positive")
        self.max_length = max_length
        self.max_branches = max_branches
        #: The paper's future-work "more intelligent instruction
        #: selection": with a program for static lookahead, a window closes
        #: at a branch whenever the following block cannot fit under the
        #: cap — so the next trace anchors immediately (no dead zone).
        self.program = program
        self._window: TraceWindow | None = None
        self._awaiting_branch = False

    def distance_to_next_branch(self, pc: int) -> int:
        """Static instruction count from ``pc`` through the next
        conditional branch (inclusive), following unconditional jumps.
        Returns ``max_length + 1`` if none is reachable within the cap.

        Delegates to the program's precomputed segment table.
        """
        return self.program.distance_to_next_branch(pc, self.max_length + 1)

    def _should_close_at_branch(self, window: TraceWindow,
                                next_pc: int) -> bool:
        """Smart selection: close if the next block cannot fit."""
        if self.program is None:
            return False
        remaining = self.max_length - window.length
        return self.distance_to_next_branch(next_pc) > remaining

    @property
    def at_anchor(self) -> bool:
        """True when the next fed instruction would start a new window."""
        return self._window is None and not self._awaiting_branch

    def feed(self, dyn: DynamicInstruction) -> TraceWindow | None:
        """Add one committed instruction; return a window if one closed."""
        return self.feed_span((dyn,), 0, 1)[1]

    def feed_span(self, trace, start: int,
                  limit: int) -> tuple[int, TraceWindow | None]:
        """Feed ``trace[start:limit]`` up to and including the first
        instruction that closes a window, ends an awaiting-branch stretch
        or is a HALT.  Returns ``(stop, window)``: ``trace[start:stop]``
        was consumed and ``window`` is the window that closed, or None."""
        index = start
        if self._awaiting_branch:
            while index < limit:
                dyn = trace[index]
                index += 1
                if dyn.is_branch or dyn.opcode is Opcode.HALT:
                    self._awaiting_branch = False
                    self._window = None
                    break
            return index, None
        window = self._window
        max_length = self.max_length
        max_branches = self.max_branches
        smart = self.program is not None
        while index < limit:
            dyn = trace[index]
            index += 1
            if dyn.opcode is Opcode.HALT:
                # HALT never belongs to a hot trace; discard the open window.
                self._window = None
                return index, None
            if window is None:
                window = self._window = TraceWindow(anchor_pc=dyn.pc)
            instructions = window.instructions
            instructions.append(dyn)
            if dyn.is_branch:
                window.branches += 1
                if window.branches >= max_branches:
                    reason = "branch_limit"
                elif smart and self._should_close_at_branch(window,
                                                            dyn.next_pc):
                    reason = "smart_close"
                elif len(instructions) >= max_length:
                    reason = "length_cap"
                else:
                    continue
            elif len(instructions) >= max_length:
                reason = "length_cap"
                self._awaiting_branch = True
            else:
                continue
            self._window = None
            window.close_reason = reason
            return index, window
        return index, None

    def resume_after(self, segment: list[DynamicInstruction]) -> None:
        """Realign anchor state after a segment was consumed externally
        (an offloaded invocation bypasses the commit stream)."""
        self._window = None
        self._awaiting_branch = bool(segment) and not segment[-1].is_branch

    def reset(self) -> None:
        self._window = None
        self._awaiting_branch = False


class TCache:
    """Saturating-counter table of trace identities."""

    def __init__(
        self,
        entries: int = 256,
        counter_bits: int = 3,
        hot_threshold: int = 3,
        clear_interval: int = 100_000,
        bus=None,
    ) -> None:
        if clear_interval < 1:
            raise ValueError("T-Cache clear interval must be positive")
        self.entries = entries
        self.counter_max = (1 << counter_bits) - 1
        self.hot_threshold = hot_threshold
        self.clear_interval = clear_interval
        self._counters: dict[tuple, int] = {}
        self._hot: set[tuple] = set()
        self._since_clear = 0
        #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
        self.bus = bus

    def observe(self, window: TraceWindow) -> bool:
        """Record a closed trace; returns True if it is (now) hot."""
        key = window.key
        bus = self.bus
        count = self._counters.get(key)
        if count is None:
            if len(self._counters) >= self.entries:
                # Direct-mapped-style replacement: evict an arbitrary cold
                # entry (insertion-order first, as a FIFO approximation).
                victim = next(iter(self._counters))
                del self._counters[victim]
                self._hot.discard(victim)
            count = 0
            if bus is not None:
                bus.emit("tcache.detect", key=key, length=window.length)
        count = min(count + 1, self.counter_max)
        self._counters[key] = count
        if count >= self.hot_threshold and key not in self._hot:
            self._hot.add(key)
            if bus is not None:
                bus.emit("tcache.hot", key=key, count=count)
        self._tick()
        hot = key in self._hot
        if bus is not None:
            # The per-candidate terminal decision record: every window fed
            # into the T-Cache produces exactly one of these.
            bus.emit(
                "tcache.window",
                key=key,
                reason=window.close_reason,
                hot=hot,
            )
        return hot

    def is_hot(self, key: tuple) -> bool:
        return key in self._hot

    def _tick(self) -> None:
        self._since_clear += 1
        if self._since_clear >= self.clear_interval:
            self._since_clear = 0
            if self.bus is not None:
                self.bus.emit(
                    "tcache.clear",
                    entries=len(self._counters),
                    hot=len(self._hot),
                )
            # Periodic clearing resets counters *and* demotes hot flags
            # ("periodically cleared to prevent traces that execute
            # infrequently from occupying the spatial fabric"): a genuinely
            # hot trace re-warms within a few windows, an infrequent one
            # stops triggering mapping phases.
            self._counters = {k: 0 for k in self._counters}
            self._hot.clear()
