"""Top-down cycle accounting: exclusive, conserved buckets per run.

The timing pipeline charges every advance of its commit point to exactly
one bucket (see ``OOOPipeline._alloc_commit``): front-end stalls accrue as
*credits* when the fetch barrier rises (drain, mapping, squash causes,
I-cache/BTB bubbles) and are realized when the commit stream actually gaps;
fat fabric invocations charge their commit gap to the offload bucket; the
remainder — healthy commit throughput — is host execution.  Because the
charges partition the commit timeline, ``sum(buckets) == total_cycles``
holds exactly on every run, which is what makes bucket deltas between two
runs a complete attribution of their cycle delta (``repro diff``).

Everything here is a pure function of a ``PipelineStats`` dict — the
breakdown reads counters, never live events, so a bench sweep gets it
without attaching an event sink.
"""

from __future__ import annotations

from repro.harness.reporting import format_table

#: Bucket name -> the ``PipelineStats`` field charged to it.  Order is the
#: presentation order of every table and stacked bar.
BUCKET_FIELDS: dict[str, str] = {
    "host": "cycles_host",
    "frontend": "cycles_frontend",
    "drain": "cycles_drain",
    "mapping": "cycles_mapping",
    "offload": "cycles_offload",
    "squash_branch": "cycles_squash_branch",
    "squash_memory": "cycles_squash_memory",
}

BUCKETS: tuple[str, ...] = tuple(BUCKET_FIELDS)

#: One-line meaning per bucket (the docs table and dashboard legend).
BUCKET_HELP: dict[str, str] = {
    "host": "healthy host execution and commit throughput",
    "frontend": "I-cache miss and BTB-miss fetch bubbles",
    "drain": "back-end drain before a mapping phase",
    "mapping": "mapper occupying the issue unit after the drain",
    "offload": "commit waiting on fabric invocations",
    "squash_branch": "branch mispredict redirects and branch squashes",
    "squash_memory": "memory-order violation squash recovery",
}


def bucket_breakdown(stats: dict) -> dict:
    """Partition one run's cycles into the accounting buckets.

    ``stats`` is a ``PipelineStats.as_dict()`` (or the ``stats`` /
    ``baseline_stats`` block of a ``repro run --json`` report).  Returns::

        {"total_cycles": N,
         "buckets": {bucket: cycles, ...},      # all seven, always
         "residual": N - sum(buckets),          # 0 on a conserved run
         "conserved": bool}
    """
    total = int(stats.get("cycles", 0))
    buckets = {
        name: int(stats.get(field, 0)) for name, field in BUCKET_FIELDS.items()
    }
    residual = total - sum(buckets.values())
    return {
        "total_cycles": total,
        "buckets": buckets,
        "residual": residual,
        "conserved": residual == 0 and all(v >= 0 for v in buckets.values()),
    }


def check_conservation(stats: dict) -> list[str]:
    """Conservation violations for one stats dict (empty = clean)."""
    breakdown = bucket_breakdown(stats)
    problems = []
    for name, value in breakdown["buckets"].items():
        if value < 0:
            problems.append(f"bucket {name} is negative ({value})")
    if breakdown["residual"]:
        problems.append(
            f"buckets sum to {breakdown['total_cycles'] - breakdown['residual']}"
            f" but the run took {breakdown['total_cycles']} cycles "
            f"(residual {breakdown['residual']})"
        )
    return problems


def render_breakdown(
    columns: dict[str, dict], baseline: str | None = None
) -> str:
    """Render bucket breakdowns side by side, one column per mode.

    ``columns`` maps a column title (e.g. ``"host"``, ``"spec"``) to a
    ``bucket_breakdown`` result.  With ``baseline`` naming one column, a
    delta column attributes the cycle difference of every *other* column
    against it.
    """
    titles = list(columns)
    headers = ["bucket"]
    for title in titles:
        headers += [f"{title} cyc", "%"]
    compare = [t for t in titles if baseline and t != baseline]
    for title in compare:
        headers.append(f"d({title}-{baseline})")

    rows: list[list] = []
    for bucket in BUCKETS:
        row: list = [bucket]
        for title in titles:
            b = columns[title]
            total = b["total_cycles"] or 1
            value = b["buckets"][bucket]
            row += [value, f"{100.0 * value / total:.1f}"]
        for title in compare:
            delta = (columns[title]["buckets"][bucket]
                     - columns[baseline]["buckets"][bucket])
            row.append(f"{delta:+d}")
        rows.append(row)
    total_row: list = ["TOTAL"]
    for title in titles:
        total_row += [columns[title]["total_cycles"], "100.0"]
    for title in compare:
        delta = (columns[title]["total_cycles"]
                 - columns[baseline]["total_cycles"])
        total_row.append(f"{delta:+d}")
    rows.append(total_row)
    return format_table(headers, rows)


def render_conservation(columns: dict[str, dict]) -> str:
    """One conservation-check line per column (PASS/FAIL)."""
    lines = []
    for title, breakdown in columns.items():
        state = "PASS" if breakdown["conserved"] else "FAIL"
        lines.append(
            f"conservation [{title}]: sum(buckets) == "
            f"{breakdown['total_cycles'] - breakdown['residual']} vs "
            f"total {breakdown['total_cycles']} "
            f"(residual {breakdown['residual']}) {state}"
        )
    return "\n".join(lines)


def render_utilization(util: dict) -> str:
    """Render a fabric-utilization summary (``repro analyze`` tail)."""
    if not util or not util.get("total_invocations"):
        return "fabric: no invocations (nothing offloaded)"
    lines = [
        f"fabric: {util['total_invocations']} invocations | "
        f"placed-PE ratio {util['placed_pe_ratio']:.1%} | "
        f"stripe fill {util['stripe_fill']:.1%}"
    ]
    reuse = util.get("reuse_distance") or {}
    if reuse.get("count"):
        lines.append(
            f"config reuse distance: mean {reuse['mean']:.1f} "
            f"reconfigs, max {reuse['max']} ({reuse['count']} reloads)"
        )
    per_stripe = util.get("per_stripe") or []
    if per_stripe:
        cells = []
        for entry in per_stripe:
            cells.append(f"{entry['occupancy']:.0%}".rjust(4))
        lines.append("per-stripe occupancy: " + " ".join(cells))
    return "\n".join(lines)
