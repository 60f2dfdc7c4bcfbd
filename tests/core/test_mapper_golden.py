"""Golden results of both mappers on every distinct T-Cache window.

``golden_mappings.json`` records, for every distinct window of the 11
kernels at scale 0.1 (trace-length caps 16, 32 and 40) on the default
fabric and on ``cca_like()``, the sha256 of what ``ResourceAwareMapper``
and ``NaiveMapper`` make of it: the configuration (placements, live-ins
and live-outs, memory-op PCs, channels, mapping cycles) or ``None`` for a failed attempt, together with every
``map.*`` event the attempt emitted (a failure's reason travels on
``map.fail``).  Regenerate the file only for an intended change of
mapping::

    PYTHONPATH=src python -m tests.core.test_mapper_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.mapper import ResourceAwareMapper
from repro.core.naive_mapper import NaiveMapper
from repro.core.tcache import TraceWindowBuilder
from repro.fabric.config import FabricConfig, cca_like
from repro.obs import EventBus, MemorySink
from repro.obs.decisions import format_trace_id
from repro.workloads import ALL_ABBREVS, generate_trace

SCALE = 0.1
LENGTHS = (16, 32, 40)
FABRICS = {"default": FabricConfig, "cca_like": cca_like}
MAPPERS = {"aware": ResourceAwareMapper, "naive": NaiveMapper}
GOLDEN = Path(__file__).with_name("golden_mappings.json")


def _windows(kernel: str, length: int):
    """First occurrence of each distinct window, in stream order."""
    builder = TraceWindowBuilder(max_length=length)
    seen = {}
    for dyn in generate_trace(kernel, SCALE).trace:
        window = builder.feed(dyn)
        if window is not None and window.key not in seen:
            seen[window.key] = window
    return list(seen.values())


def _configuration_fields(config):
    if config is None:
        return None
    return (
        config.trace_key,
        [dataclasses.astuple(op) for op in config.placements],
        config.live_ins,
        list(config.live_outs.items()),
        config.mem_op_pcs,
        config.stripes_used,
        config.datapath_channels_used,
        config.mapping_cycles,
    )


def _attempt_digest(mapper, sink: MemorySink, window) -> str:
    sink.events.clear()
    config = mapper.map_trace(window.instructions, window.key)
    events = [(e.type, sorted(e.data.items())) for e in sink.events]
    text = repr((_configuration_fields(config), events))
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(fabric: str, kernel: str) -> dict:
    """``{"<length>/<trace id>": {"aware": sha, "naive": sha}}``."""
    sink = MemorySink()
    mappers = {
        name: cls(FABRICS[fabric](), bus=EventBus(sink))
        for name, cls in MAPPERS.items()
    }
    doc = {}
    for length in LENGTHS:
        for window in _windows(kernel, length):
            doc[f"{length}/{format_trace_id(window.key)}"] = {
                name: _attempt_digest(mapper, sink, window)
                for name, mapper in mappers.items()
            }
    return doc


@pytest.mark.parametrize("kernel", ALL_ABBREVS)
@pytest.mark.parametrize("fabric", FABRICS)
def test_mappings_match_golden(fabric, kernel):
    golden = json.loads(GOLDEN.read_text())[fabric][kernel]
    assert _digests(fabric, kernel) == golden


def _regenerate() -> None:
    doc = {
        fabric: {kernel: _digests(fabric, kernel) for kernel in ALL_ABBREVS}
        for fabric in FABRICS
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
