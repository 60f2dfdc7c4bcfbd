"""No dead counters: every stat field and event type fires somewhere.

Runs the whole benchmark suite at smoke scale (plus targeted runs with
configs that force the rare paths: periodic T-Cache clears, config-cache
eviction, integer division) and asserts the union of the results ticks

* every ``PipelineStats`` field, and
* every registered lifecycle event type.

A counter or event nobody can trigger is dead weight that silently rots;
this test forces each addition to arrive with a scenario exercising it.
"""

import dataclasses

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.harness.runner import run_dynaspam
from repro.isa.builder import ProgramBuilder
from repro.isa.executor import FunctionalExecutor
from repro.obs import EVENT_TYPES, AggregateSink
from repro.ooo.stats import PipelineStats
from repro.workloads import ALL_ABBREVS

SCALE = 0.05


def _int_div_run(sink):
    """A synthetic hot division loop: no suite kernel uses integer DIV."""
    b = ProgramBuilder("divloop")
    b.li("r1", 4000)
    b.li("r2", 3)
    with b.countdown("loop", "r3", 64):
        b.div("r4", "r1", "r2")
        b.rem("r5", "r1", "r2")
        b.add("r6", "r4", "r5")
    b.halt()
    program = b.build()
    trace = FunctionalExecutor().run(program).trace
    machine = DynaSpAM(
        ds_config=DynaSpAMConfig(hot_threshold=2, ready_threshold=2),
        sink=sink,
    )
    return machine.run(trace, program)


def test_every_stat_and_event_fires_across_the_suite():
    field_names = {f.name for f in dataclasses.fields(PipelineStats)}
    ticked: set[str] = set()
    fired: set[str] = set()

    def absorb(result, sink):
        ticked.update(
            name for name, value in result.stats.as_dict().items() if value
        )
        fired.update(sink.counts)

    for abbrev in ALL_ABBREVS:
        sink = AggregateSink()
        absorb(run_dynaspam(abbrev, SCALE, sink=sink), sink)

    # Forced rare paths -----------------------------------------------
    # Periodic T-Cache clear: the interval counts *observed windows*
    # (offloaded invocations bypass the commit stream), so it must sit
    # far below the handful of windows a smoke run commits on the host.
    sink = AggregateSink()
    absorb(
        run_dynaspam(
            "KM", SCALE, sink=sink,
            config=DynaSpAMConfig(tcache_clear_interval=20),
        ),
        sink,
    )
    # Config-cache eviction: a trace-diverse benchmark with 2 entries.
    sink = AggregateSink()
    absorb(
        run_dynaspam(
            "BFS", SCALE, sink=sink,
            config=DynaSpAMConfig(config_cache_entries=2),
        ),
        sink,
    )
    # Integer division (synthetic; see _int_div_run).
    sink = AggregateSink()
    absorb(_int_div_run(sink), sink)

    dead_stats = field_names - ticked
    assert not dead_stats, f"stats fields never ticked: {sorted(dead_stats)}"
    dead_events = set(EVENT_TYPES) - fired
    assert not dead_events, f"event types never fired: {sorted(dead_events)}"
