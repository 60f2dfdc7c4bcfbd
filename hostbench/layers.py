"""Traced-run harness: class-level timing wrappers with self time.

Only the traced run installs these wrappers; the untraced run that
produces the end-to-end metrics executes the program untouched.  Each
wrapper times one public entry point of a simulator layer.  A stack of
open frames turns wall time into *self* time: a frame's elapsed time is
charged to its layer minus the time of the wrapped calls nested inside
it, and added to the parent frame's child total.

Accumulators live in an anonymous shared mapping.  A service worker
forked inside :meth:`LayerTimer.installed` inherits both the wrapped classes
and the mapping, so the forked simulation writes where the benchmark
process reads.  The frame stack is per process and not per thread: the
benchmark and the service worker each simulate on one thread.
"""

from __future__ import annotations

import mmap
import time
from contextlib import contextmanager


def _targets():
    """``(layer, owner, attribute, miss_predicate)`` for every wrapped
    entry point.  Imported lazily: the benchmark checks the checkout
    before it imports the program."""
    import repro.harness.runner as runner
    import repro.workloads.suite as suite
    from repro.core.config_cache import ConfigCache
    from repro.core.framework import DynaSpAM
    from repro.core.mapper import ResourceAwareMapper
    from repro.core.multifabric import FabricPool
    from repro.core.offload import OffloadEngine
    from repro.core.tcache import TCache, TraceWindowBuilder
    from repro.fabric.fabric import SpatialFabric
    from repro.harness.diskcache import DiskCache
    from repro.ooo.fastpath import FastOOOPipeline

    def trace_miss(args, kwargs) -> bool:
        # generate_trace(abbrev, scale=1.0): only an in-process cache
        # miss generates (or disk-loads) a trace.
        cache = getattr(suite, "_TRACE_CACHE", None)
        if cache is None:
            return True
        abbrev = args[0] if args else kwargs.get("abbrev")
        scale = args[1] if len(args) > 1 else kwargs.get("scale", 1.0)
        return (abbrev, scale) not in cache

    return [
        ("ooo", FastOOOPipeline, "process", None),
        ("framework", DynaSpAM, "run", None),
        ("tcache", TraceWindowBuilder, "feed", None),
        ("tcache", TCache, "observe", None),
        ("tcache", TCache, "is_hot", None),
        ("config_cache", ConfigCache, "lookup", None),
        ("config_cache", ConfigCache, "insert", None),
        ("config_cache", ConfigCache, "tick", None),
        ("config_cache", ConfigCache, "predicted_again", None),
        ("mapper", ResourceAwareMapper, "map_trace", None),
        ("fabric_pool", FabricPool, "acquire", None),
        ("offload", OffloadEngine, "offload", None),
        ("fabric", SpatialFabric, "execute", None),
        ("workloads", runner, "generate_trace", trace_miss),
        ("runner", runner, "execute_spec", None),
        ("diskcache_get", DiskCache, "get", None),
        ("diskcache_put", DiskCache, "put", None),
    ]


def _ready(entry) -> bool:
    return (entry is not None and entry.configuration is not None
            and entry.ready)


#: ``(owner attribute, counter, predicate on the call's result)``: the
#: outcomes the waste ratios are built from.
OUTCOMES = {
    "lookup": ("config_cache.ready", _ready),
    "map_trace": ("mapper.failed", lambda result: result is None),
    "offload": ("offload.squashed", lambda result: not result.success),
    "get": ("diskcache.hits", lambda result: result is not None),
}


class LayerTimer:
    """Self nanoseconds per layer and calls per wrapped entry point.

    ``targets`` lists ``(layer, owner, attribute, miss_predicate)`` for
    every entry point :meth:`installed` wraps.
    """

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        layers = dict.fromkeys(layer for layer, *_ in self.targets)
        names = [f"{layer}.ns" for layer in layers]
        names += [f"{layer}.{attr}.calls"
                  for layer, _, attr, _ in self.targets]
        names += [counter for counter, _ in OUTCOMES.values()]
        self.slots = {name: index for index, name in enumerate(names)}
        self._map = mmap.mmap(-1, 8 * len(names))
        self.cells = memoryview(self._map).cast("q")
        self._stack: list[list[int]] = []

    @classmethod
    def for_program(cls) -> "LayerTimer":
        return cls(_targets())

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, attr: str, miss=None):
        """``fn`` timed into ``layer``; calls for which ``miss`` returns
        False run unwrapped (their time stays with the caller)."""
        cells = self.cells
        ns_slot = self.slots[f"{layer}.ns"]
        calls_slot = self.slots[f"{layer}.{attr}.calls"]
        counter, predicate = OUTCOMES.get(attr, (None, None))
        outcome_slot = self.slots[counter] if counter else None
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if miss is not None and not miss(args, kwargs):
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cells[ns_slot] += elapsed - frame[0]
                cells[calls_slot] += 1
                if stack:
                    stack[-1][0] += elapsed
            if outcome_slot is not None and predicate(result):
                cells[outcome_slot] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Every target wrapped for the duration of the block."""
        patches = []
        try:
            for layer, owner, attr, miss in self.targets:
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, attr, miss))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        return {name: self.cells[index] for name, index in self.slots.items()}

    def close(self) -> None:
        self.cells.release()
        self._map.close()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(snap: dict[str, int], passes: int,
                  stats: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per traced pass.

    ``snap`` is a :meth:`LayerTimer.snapshot`; ``stats`` holds the
    ``stats.as_dict()`` of every run the traced passes simulated, the
    source of the ratios the program counts itself.
    """
    def seconds(layer: str) -> tuple[float, str]:
        return snap[f"{layer}.ns"] / 1e9 / passes, "s"

    def count(name: str) -> tuple[float, str]:
        return snap[name] / passes, "count"

    def total(counter: str) -> int:
        return sum(s.get(counter, 0) for s in stats)

    process_calls = snap["ooo.process.calls"]
    lookups = snap["config_cache.lookup.calls"]
    predict = total("predict_memo_hits")
    memo = total("invocation_memo_hits")
    return {
        "ooo.process_s": seconds("ooo"),
        "ooo.process_calls": count("ooo.process.calls"),
        "ooo.ns_per_instr": (_ratio(snap["ooo.ns"], process_calls), "ns"),
        "framework.self_s": seconds("framework"),
        "framework.predict_memo_hit_ratio": (
            _ratio(predict, predict + total("predict_memo_misses")),
            "ratio"),
        "tcache.s": seconds("tcache"),
        "tcache.windows": count("tcache.observe.calls"),
        "config_cache.s": seconds("config_cache"),
        "config_cache.lookups": count("config_cache.lookup.calls"),
        "config_cache.ready_ratio": (
            _ratio(snap["config_cache.ready"], lookups), "ratio"),
        "mapper.s": seconds("mapper"),
        "mapper.calls": count("mapper.map_trace.calls"),
        "mapper.fail_ratio": (
            _ratio(snap["mapper.failed"], snap["mapper.map_trace.calls"]),
            "ratio"),
        "fabric_pool.s": seconds("fabric_pool"),
        "fabric_pool.reconfigurations": (
            total("fabric_configurations") / passes, "count"),
        "offload.s": seconds("offload"),
        "offload.invocations": count("offload.offload.calls"),
        "offload.squash_ratio": (
            _ratio(snap["offload.squashed"], snap["offload.offload.calls"]),
            "ratio"),
        "fabric.execute_s": seconds("fabric"),
        "fabric.memo_hit_ratio": (
            _ratio(memo, memo + total("invocation_memo_misses")), "ratio"),
        "fabric.batched_ratio": (
            _ratio(total("batched_invocations"),
                   total("fabric_invocations")), "ratio"),
        "workloads.trace_gen_s": seconds("workloads"),
        "workloads.traces": count("workloads.generate_trace.calls"),
        "runner.self_s": seconds("runner"),
        "diskcache.get_s": seconds("diskcache_get"),
        "diskcache.put_s": seconds("diskcache_put"),
        "diskcache.hit_ratio": (
            _ratio(snap["diskcache.hits"], snap["diskcache_get.get.calls"]),
            "ratio"),
    }
