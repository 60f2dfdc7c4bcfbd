"""DynaSpAM core: trace detection, dynamic mapping, and trace offloading.

This package implements the paper's contribution:

* ``tcache`` — the T-Cache that detects hot traces from committed branches;
* ``tables`` — the mapping status tables (ProdTable, ReuseSet,
  OverallUsage, LiveOutTable, LastUsedLocation);
* ``priority`` — PriorityGen, Algorithm 2;
* ``mapper`` — the mapping skeleton both mappers share and the
  resource-aware scheduler, Algorithms 1 and 3, as its placement policy;
* ``naive_mapper`` — the CCA/DIF-style in-order baseline: the same
  skeleton with a program-order first-fit policy;
* ``config_cache`` — the configuration cache with saturating counters;
* ``multifabric`` — LRU management of 1..N on-chip fabrics;
* ``offload`` — fat-atomic-instruction execution with squash/replay (the
  side ROB, ROB', is modeled by the fat entry's timing);
* ``framework`` — the full DynaSpAM machine wired around the host OOO.
"""

from repro.core.tcache import TCache, TraceWindowBuilder, TraceWindow
from repro.core.config_cache import ConfigCache
from repro.core.mapper import ResourceAwareMapper
from repro.core.naive_mapper import NaiveMapper
from repro.core.multifabric import FabricPool
from repro.core.framework import DynaSpAM, DynaSpAMConfig, DynaSpAMResult
from repro.core.tuning import evaluate_mix, FabricTuner, TunedMix

__all__ = [
    "ConfigCache",
    "DynaSpAM",
    "DynaSpAMConfig",
    "DynaSpAMResult",
    "evaluate_mix",
    "FabricPool",
    "FabricTuner",
    "NaiveMapper",
    "ResourceAwareMapper",
    "TCache",
    "TraceWindow",
    "TraceWindowBuilder",
    "TunedMix",
]
