"""Configuration cache (paper Section 3.1, Table 4).

16 entries, each holding a mapped configuration and a 3-bit saturating
counter; the counter increments every time the fetch stage predicts the
trace again, and once it crosses the threshold (4) the entry becomes
*ready* and offloading begins.  Counters are periodically cleared so
infrequent traces do not occupy the fabric.  Traces that failed to map are
remembered as unmappable so the pipeline does not re-drain for them.

Deviation from the paper: the paper's cache is direct mapped by a hardware
index; a software hash makes conflict pairs arbitrary and causes mapping
ping-pong that the authors' PC-based indexing would not.  We model the same
16-entry capacity with LRU replacement instead, which preserves the
intended behaviour (capacity pressure evicts cold traces, hot traces stay).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.configuration import Configuration


@dataclass
class ConfigEntry:
    key: tuple
    configuration: Configuration | None   # None = known unmappable
    counter: int = 0
    ready: bool = False
    offload_count: int = 0


@dataclass
class ConfigCache:
    """16-entry LRU configuration store with saturating counters."""

    entries: int = 16
    counter_bits: int = 3
    ready_threshold: int = 4
    clear_interval: int = 200_000

    _store: dict[tuple, ConfigEntry] = field(default_factory=dict)
    _since_clear: int = 0
    mapped_keys: set = field(default_factory=set)
    #: Optional ``repro.obs.EventBus`` (None = tracing disabled).
    bus: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.clear_interval < 1:
            raise ValueError("config cache clear interval must be positive")

    def lookup(self, key: tuple) -> ConfigEntry | None:
        """Probe the cache (a fetch-stage read).  Hits refresh LRU order."""
        entry = self._store.get(key)
        if entry is not None:
            # dict preserves insertion order: re-insert to mark recency.
            del self._store[key]
            self._store[key] = entry
            if self.bus is not None:
                self.bus.emit(
                    "ccache.hit",
                    key=key,
                    counter=entry.counter,
                    ready=entry.ready,
                    mappable=entry.configuration is not None,
                )
        return entry

    def insert(self, key: tuple, configuration: Configuration | None) -> ConfigEntry:
        """Store a mapping result (or an unmappable marker)."""
        if key not in self._store and len(self._store) >= self.entries:
            victim = next(iter(self._store))
            victim_entry = self._store[victim]
            del self._store[victim]
            if self.bus is not None:
                self.bus.emit(
                    "ccache.evict",
                    key=victim,
                    offload_count=victim_entry.offload_count,
                    occupancy=len(self._store),
                )
        entry = ConfigEntry(key=key, configuration=configuration)
        if configuration is not None:
            self.mapped_keys.add(key)
        self._store[key] = entry
        if self.bus is not None:
            self.bus.emit(
                "ccache.insert",
                key=key,
                mappable=configuration is not None,
                occupancy=len(self._store),
            )
        return entry

    def predicted_again(self, entry: ConfigEntry) -> bool:
        """Bump an entry's counter; True once the entry becomes ready."""
        if entry.configuration is None:
            return False
        counter_max = (1 << self.counter_bits) - 1
        if entry.counter < counter_max:
            entry.counter += 1
        if entry.counter >= self.ready_threshold and not entry.ready:
            entry.ready = True
            if self.bus is not None:
                self.bus.emit(
                    "ccache.ready", key=entry.key, counter=entry.counter
                )
        return entry.ready

    def tick(self, instructions: int = 1) -> None:
        """Advance the periodic counter-clearing clock; crossing the
        interval restarts it at zero."""
        self._since_clear += instructions
        if self._since_clear >= self.clear_interval:
            self._since_clear = 0
            for entry in self._store.values():
                entry.counter = 0

    def advance(self, instructions: int) -> None:
        """Advance the clock exactly as ``instructions`` calls of
        ``tick(1)`` would: one batched step for a host span."""
        since = self._since_clear + instructions
        self._since_clear = since % self.clear_interval
        if since >= self.clear_interval:
            for entry in self._store.values():
                entry.counter = 0

    @property
    def mapped_trace_count(self) -> int:
        return len(self.mapped_keys)

    @property
    def occupancy(self) -> int:
        return len(self._store)
