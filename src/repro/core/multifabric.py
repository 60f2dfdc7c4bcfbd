"""Multi-fabric management with LRU reconfiguration (paper Section 5.2).

Table 5 models 1, 2, and 4 on-chip fabrics (and 8 for the BFS case study):
more fabrics keep more configurations resident, lengthening average
configuration lifetime for trace-diverse programs like BFS.
"""

from __future__ import annotations

from repro.fabric.config import FabricConfig
from repro.fabric.configuration import Configuration
from repro.fabric.fabric import SpatialFabric


class FabricPool:
    """A set of fabrics managed with an LRU reconfiguration policy."""

    def __init__(
        self,
        num_fabrics: int = 1,
        fabric_config: FabricConfig | None = None,
        bus=None,
    ) -> None:
        if num_fabrics < 1:
            raise ValueError("need at least one fabric")
        self.fabric_config = fabric_config or FabricConfig()
        self.fabrics = [
            SpatialFabric(self.fabric_config, fabric_id=i, bus=bus)
            for i in range(num_fabrics)
        ]
        self._lru: list[int] = list(range(num_fabrics))
        self.reconfigurations = 0
        # Configuration reuse distance: reconfigurations between two loads
        # of the same trace key, across the whole pool.  A reload with a
        # short distance is thrash the config cache / more fabrics would
        # have absorbed (repro.obs.accounting surfaces the summary).
        self._load_seq = 0
        self._last_loaded: dict[tuple, int] = {}
        self.reuse_distances: list[int] = []

    def _touch(self, fabric_id: int) -> None:
        self._lru.remove(fabric_id)
        self._lru.append(fabric_id)

    def acquire(
        self,
        configuration: Configuration,
        cycle: int,
        reconfig_hysteresis: int = 0,
    ) -> tuple[SpatialFabric, int] | None:
        """Return (fabric, ready cycle) for an invocation of ``configuration``.

        Reuses a fabric already holding the configuration; otherwise
        reconfigures the least-recently-used fabric.  With a nonzero
        ``reconfig_hysteresis``, a fabric reconfigured within the last that
        many *cycles* is not evicted — the caller runs the trace on the
        host instead (the paper's saturating-counter filtering exists "to
        prevent frequent reconfiguration").  Returns None when every fabric
        is protected.
        """
        key = configuration.trace_key
        for fabric in self.fabrics:
            if fabric.is_configured_for(key):
                self._touch(fabric.fabric_id)
                return fabric, cycle
        victim = None
        for fabric_id in self._lru:
            candidate = self.fabrics[fabric_id]
            if (
                candidate.current_key is None
                or cycle - candidate.configured_at >= reconfig_hysteresis
            ):
                victim = candidate
                break
        if victim is None:
            return None
        ready = victim.configure(configuration, cycle)
        self.reconfigurations += 1
        self._load_seq += 1
        last = self._last_loaded.get(key)
        if last is not None:
            self.reuse_distances.append(self._load_seq - last)
        self._last_loaded[key] = self._load_seq
        self._touch(victim.fabric_id)
        return victim, ready

    def lifetimes(self) -> list[int]:
        """Invocations-per-configuration samples across all fabrics."""
        samples: list[int] = []
        for fabric in self.fabrics:
            samples.extend(fabric.flush_lifetime())
        return samples

    @property
    def total_invocations(self) -> int:
        return sum(f.total_invocations for f in self.fabrics)

    def utilization(self) -> dict:
        """Pool-wide fabric occupancy summary (JSON-ready).

        Every fabric in the pool shares one geometry, so per-stripe counts
        merge by index.  Ratios are invocation-weighted: an invocation of a
        configuration occupying 10 of 192 PEs contributes 10/192 to
        ``placed_pe_ratio`` regardless of how long it ran.  Occupancy is
        charged when a configuration's lifetime closes, so call
        :meth:`lifetimes` first at the end of a run.
        """
        cfg = self.fabric_config
        invocations = self.total_invocations
        num_stripes = cfg.num_stripes
        placed = [0] * num_stripes
        touched = [0] * num_stripes
        for fabric in self.fabrics:
            for stripe in range(num_stripes):
                placed[stripe] += fabric.stripe_placed_invocations[stripe]
                touched[stripe] += fabric.stripe_invocations[stripe]
        total_pes = sum(cfg.pes_in_stripe(s) for s in range(num_stripes))
        per_stripe = [
            {
                "stripe": stripe,
                "pes": cfg.pes_in_stripe(stripe),
                "placed_pe_invocations": placed[stripe],
                "invocations": touched[stripe],
                "occupancy": (
                    placed[stripe]
                    / (cfg.pes_in_stripe(stripe) * invocations)
                    if invocations else 0.0
                ),
            }
            for stripe in range(num_stripes)
        ]
        reuse: dict = {"count": len(self.reuse_distances)}
        if self.reuse_distances:
            reuse["mean"] = (
                sum(self.reuse_distances) / len(self.reuse_distances))
            reuse["max"] = max(self.reuse_distances)
        return {
            "num_fabrics": len(self.fabrics),
            "num_stripes": num_stripes,
            "total_pes": total_pes,
            "total_invocations": invocations,
            "reconfigurations": self.reconfigurations,
            "placed_pe_ratio": (
                sum(placed) / (total_pes * invocations)
                if invocations else 0.0
            ),
            "stripe_fill": (
                sum(touched) / (num_stripes * invocations)
                if invocations else 0.0
            ),
            "per_stripe": per_stripe,
            "reuse_distance": reuse,
        }
