"""Trace explorer: watch detection find hot traces and inspect a mapping.

Feeds a benchmark's committed instruction stream through the trace-window
builder and the T-Cache exactly as the framework does, reports the hottest
trace identities, then maps the hottest one with the resource-aware mapper
and prints its stripe-by-stripe placement — a text rendition of the
paper's Figure 6 mapping example.

Run:  python examples/trace_explorer.py [abbrev] [scale]
"""

import sys
from collections import Counter

from repro.core.mapper import ResourceAwareMapper
from repro.core.tcache import TraceWindowBuilder
from repro.workloads import generate_trace


def main() -> None:
    abbrev = sys.argv[1] if len(sys.argv) > 1 else "KM"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    run = generate_trace(abbrev, scale)
    builder = TraceWindowBuilder(max_length=32)
    counts: Counter = Counter()
    example = {}
    for dyn in run.trace:
        window = builder.feed(dyn)
        if window is not None:
            counts[window.key] += 1
            example.setdefault(window.key, window)

    print(f"{abbrev}: {run.dynamic_count} dynamic instructions, "
          f"{len(counts)} distinct trace identities\n")
    print("hottest traces (anchor pc, branch outcomes, length) x count:")
    for key, count in counts.most_common(5):
        pc, outcomes, length = key
        taken = "".join("T" if o else "N" for o in outcomes)
        print(f"  pc=0x{pc:04x} outcomes={taken:3s} len={length:2d}  "
              f"x{count}")

    hottest, _ = counts.most_common(1)[0]
    window = example[hottest]
    config = ResourceAwareMapper().map_trace(window.instructions, hottest)
    if config is None:
        print("\nhottest trace is unmappable on the default fabric")
        return

    print(f"\nmapping of the hottest trace "
          f"({len(config.placements)} ops, {config.stripes_used} stripes, "
          f"{config.datapath_channels_used} datapath channels, "
          f"{len(config.live_ins)} live-ins, {len(config.live_outs)} "
          f"live-outs):\n")
    for stripe in range(config.stripes_used):
        ops = [op for op in config.placements if op.stripe == stripe]
        cells = []
        for op in sorted(ops, key=lambda o: o.pe_index):
            sources = []
            for src in op.sources:
                if src.kind == "livein":
                    sources.append(src.reg)
                else:
                    sources.append(f"#{src.producer_pos}"
                                   + (f"+{src.hops - 1}h" if src.hops > 1 else ""))
            operand_text = ",".join(sources) or "-"
            cells.append(f"#{op.pos}:{op.opcode.value}({operand_text})")
        print(f"  stripe {stripe:2d} | " + "  ".join(cells))


if __name__ == "__main__":
    main()
