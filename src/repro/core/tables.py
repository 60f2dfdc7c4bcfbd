"""Mapping status tables (paper Section 4.2, Figure 6).

Values inside a trace are identified by *tokens*: ``("pos", q)`` for the
result of the trace instruction at position ``q``, ``("livein", reg)`` for
a live-in register.  Tokens sidestep the register-renaming ambiguity when a
trace redefines the same architectural register.

* ``ProdTable``    — CAM: token -> producing stripe (the PE location);
* ``ReuseSet``     — per stripe *boundary* b, the tokens whose values reach
  the input interconnect of stripe b (outputs of stripe b-1 are there for
  free through the direct wires; farther values occupy pass registers);
* ``OverallUsage`` — pass-register (datapath channel) occupancy per stripe;
* ``LiveOutTable`` — final definitions of architectural registers (these
  configure the output FIFOs);
* ``LastUsedLocation`` — deepest stripe where each token is consumed, used
  to trim routing propagated for killed potential live-outs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Token = tuple  # ("pos", int) | ("livein", str)


def pos_token(pos: int) -> Token:
    return ("pos", pos)


def livein_token(reg: str) -> Token:
    return ("livein", reg)


@dataclass
class MappingTables:
    """All status tables for one in-progress mapping.

    ``channels_per_stripe`` accepts a single capacity (homogeneous
    fabrics) or a per-stripe sequence (heterogeneous, e.g. CCA-like
    triangles).
    """

    num_stripes: int
    channels_per_stripe: int | list[int]

    prod_stripe: dict[Token, int] = field(default_factory=dict)  # ProdTable
    reuse: list[set] = field(default_factory=list)               # ReuseSet per boundary
    channels_used: list[int] = field(default_factory=list)       # OverallUsage
    live_out: dict[str, int] = field(default_factory=dict)       # LiveOutTable
    last_used: dict[Token, int] = field(default_factory=dict)    # LastUsedLocation
    total_channels_allocated: int = 0

    def __post_init__(self) -> None:
        # Boundary b feeds stripe b; boundary 0 is the live-in interface.
        self.reuse = [set() for _ in range(self.num_stripes + 1)]
        self.channels_used = [0] * self.num_stripes
        if isinstance(self.channels_per_stripe, int):
            self._capacity = [self.channels_per_stripe] * self.num_stripes
        else:
            self._capacity = list(self.channels_per_stripe)
            if len(self._capacity) != self.num_stripes:
                raise ValueError("need one channel capacity per stripe")

    # ------------------------------------------------------------------
    # ProdTable
    # ------------------------------------------------------------------
    def define(self, token: Token, stripe: int) -> None:
        self.prod_stripe[token] = stripe
        # A producer's output reaches the next boundary through the direct
        # wires at no channel cost (Figure 4 connections 1-3).
        if stripe + 1 <= self.num_stripes:
            self.reuse[stripe + 1].add(token)

    # ------------------------------------------------------------------
    # ReuseSet / OverallUsage
    # ------------------------------------------------------------------
    def in_reuse_set(self, token: Token, boundary: int) -> bool:
        return token in self.reuse[boundary]

    def last_boundary_available(self, token: Token, limit: int) -> int | None:
        """Highest boundary <= ``limit`` where the token's value exists."""
        for boundary in range(limit, 0, -1):
            if token in self.reuse[boundary]:
                return boundary
        return None

    def can_route(self, token: Token, to_boundary: int) -> bool:
        """Can the value be carried (via new pass registers) to
        ``to_boundary``?  Requires a free channel in every stripe between
        its last available boundary and the target."""
        if token not in self.prod_stripe:
            return False
        available = self.last_boundary_available(token, to_boundary)
        if available is None:
            return False
        if available == to_boundary:
            return True
        return all(
            self.channels_used[stripe] < self._capacity[stripe]
            for stripe in range(available, to_boundary)
        )

    def allocate_route(self, token: Token, to_boundary: int) -> int:
        """Allocate pass registers carrying the value to ``to_boundary``
        (Algorithm 3: the new datapath joins the ReuseSet of every stripe
        it crosses).  Returns the number of channels consumed."""
        available = self.last_boundary_available(token, to_boundary)
        if available is None:
            raise ValueError(f"token {token} has no value to route")
        consumed = 0
        for stripe in range(available, to_boundary):
            if self.channels_used[stripe] >= self._capacity[stripe]:
                raise ValueError(f"no channel free in stripe {stripe}")
            self.channels_used[stripe] += 1
            consumed += 1
            self.reuse[stripe + 1].add(token)
        self.total_channels_allocated += consumed
        return consumed

    # ------------------------------------------------------------------
    # Frontier advance: auto-propagation of potential live-outs
    # ------------------------------------------------------------------
    def propagate(self, from_boundary: int, live_tokens) -> None:
        """Carry still-live values one boundary forward, capacity
        permitting (Section 4.2: potential live-outs are automatically
        routed to the next stripe to increase the probability of reuse)."""
        if from_boundary + 1 > self.num_stripes:
            return
        stripe = from_boundary  # the stripe whose pass registers latch
        for token in self.reuse[from_boundary]:
            if token not in live_tokens:
                continue
            if token in self.reuse[from_boundary + 1]:
                continue
            if self.channels_used[stripe] >= self._capacity[stripe]:
                break
            self.channels_used[stripe] += 1
            self.total_channels_allocated += 1
            self.reuse[from_boundary + 1].add(token)

    # ------------------------------------------------------------------
    # LiveOutTable / LastUsedLocation
    # ------------------------------------------------------------------
    def note_use(self, token: Token, stripe: int) -> None:
        previous = self.last_used.get(token, -1)
        if stripe > previous:
            self.last_used[token] = stripe

    def set_live_out(self, reg: str, pos: int) -> None:
        self.live_out[reg] = pos
