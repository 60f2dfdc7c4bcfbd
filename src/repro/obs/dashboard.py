"""Self-contained HTML dashboard for bench reports.

``repro bench --dashboard out/`` renders the report JSON into one static
``index.html`` — no external scripts, stylesheets, or fonts — suitable
for uploading as a CI artifact.  Two charts:

* stacked cycle-accounting bars, one row per (benchmark, series), each
  segment a conserved bucket from ``repro.obs.accounting``;
* a fabric-utilization heatmap, benchmarks x stripes, shaded by
  invocation-weighted occupancy;

plus a host wall-clock panel (per-section seconds from the report's
``profile`` block).  It charts only what the bench report holds: a
kernel's trace fates are ``repro why``'s to report.

Everything is derived from the report's stats-based ``accounting`` and
``fabric_utilization`` blocks — no event stream is consumed, so the
dashboard stays legal in ``--require-null-sink``-gated bench runs.

The palette follows the repo-wide dataviz conventions: a fixed
categorical order validated for adjacent-pair colorblind separation in
light and dark mode, a single-hue sequential ramp for the heatmap
(reversed in dark mode so "near zero" recedes into the surface), text in
ink tokens rather than series colors, and a full table view backing both
charts.
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.obs.accounting import BUCKETS

#: Categorical slot per bucket, in fixed order (light, dark).  The order
#: is the CVD-safety mechanism for adjacent stacked segments — append new
#: buckets at the end, never reshuffle.
BUCKET_COLORS: dict[str, tuple[str, str]] = {
    "host": ("#2a78d6", "#3987e5"),
    "frontend": ("#eb6834", "#d95926"),
    "drain": ("#1baf7a", "#199e70"),
    "mapping": ("#eda100", "#c98500"),
    "offload": ("#e87ba4", "#d55181"),
    "squash_branch": ("#008300", "#008300"),
    "squash_memory": ("#4a3aa7", "#9085e9"),
}

#: Single-hue sequential ramp (blue 100 -> 700) for the occupancy heatmap.
SEQUENTIAL_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

SERIES_ORDER = ("baseline", "mapping", "no_spec", "spec")
SERIES_LABEL = {
    "baseline": "host",
    "mapping": "mapping only",
    "no_spec": "accel w/o spec",
    "spec": "accel w/ spec",
    "dynaspam": "dynaspam",
}

_BAR_H = 16          # bar thickness (<= 24px per the mark spec)
_ROW_H = 22          # bar + air
_GAP = 2             # surface gap between touching segments
_LEFT = 150          # label gutter
_PLOT_W = 640        # plot width at the widest bar
_LABEL_W = 80        # room for the value at the bar tip


def _style() -> str:
    light_vars = "\n".join(
        f"      --bucket-{name}: {light};"
        for name, (light, _) in BUCKET_COLORS.items()
    )
    dark_vars = "\n".join(
        f"      --bucket-{name}: {dark};"
        for name, (_, dark) in BUCKET_COLORS.items()
    )
    light_ramp = "\n".join(
        f"      .q{i} {{ fill: {hex_}; }}"
        for i, hex_ in enumerate(SEQUENTIAL_RAMP)
    )
    dark_ramp = "\n".join(
        f"      .q{i} {{ fill: {hex_}; }}"
        for i, hex_ in enumerate(reversed(SEQUENTIAL_RAMP))
    )
    return f"""
  <style>
    :root {{
      color-scheme: light dark;
      --surface-1: #fcfcfb;
      --page: #f9f9f7;
      --text-primary: #0b0b0b;
      --text-secondary: #52514e;
      --text-muted: #898781;
      --hairline: #e1e0d9;
      --warning-ink: #8a5a00;
{light_vars}
    }}
{light_ramp}
    @media (prefers-color-scheme: dark) {{
      :root {{
        --surface-1: #1a1a19;
        --page: #0d0d0d;
        --text-primary: #ffffff;
        --text-secondary: #c3c2b7;
        --text-muted: #898781;
        --hairline: #2c2c2a;
        --warning-ink: #fab219;
{dark_vars}
      }}
{dark_ramp}
    }}
    body {{
      margin: 0; padding: 24px 32px 48px;
      background: var(--page); color: var(--text-primary);
      font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
    }}
    h1 {{ font-size: 20px; margin: 0 0 4px; }}
    h2 {{ font-size: 15px; margin: 32px 0 8px; }}
    .sub {{ color: var(--text-secondary); margin: 0 0 16px; }}
    .tiles {{ display: flex; gap: 16px; flex-wrap: wrap; margin: 16px 0; }}
    .tile {{
      background: var(--surface-1); border: 1px solid var(--hairline);
      border-radius: 8px; padding: 10px 16px; min-width: 130px;
    }}
    .tile .label {{ color: var(--text-secondary); font-size: 12px; }}
    .tile .value {{ font-size: 26px; font-weight: 600; }}
    .warn {{ color: var(--warning-ink); margin: 4px 0; }}
    .card {{
      background: var(--surface-1); border: 1px solid var(--hairline);
      border-radius: 8px; padding: 16px; overflow-x: auto;
    }}
    .legend {{
      display: flex; gap: 14px; flex-wrap: wrap; margin: 0 0 10px;
      color: var(--text-secondary); font-size: 12px;
    }}
    .legend .swatch {{
      display: inline-block; width: 10px; height: 10px;
      border-radius: 2px; margin-right: 4px; vertical-align: -1px;
    }}
    svg text {{
      font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
      fill: var(--text-secondary);
    }}
    svg text.value {{ fill: var(--text-muted); }}
    svg text.bench {{ fill: var(--text-primary); font-weight: 600; }}
    table {{ border-collapse: collapse; font-size: 12px; }}
    th, td {{
      padding: 3px 10px; text-align: right;
      font-variant-numeric: tabular-nums;
    }}
    th {{ color: var(--text-secondary); font-weight: 600; }}
    td:first-child, th:first-child,
    td:nth-child(2), th:nth-child(2) {{ text-align: left; }}
    tbody tr {{ border-top: 1px solid var(--hairline); }}
    .fail {{ color: var(--warning-ink); font-weight: 600; }}
  </style>"""


def _legend() -> str:
    items = "".join(
        f'<span><span class="swatch" '
        f'style="background: var(--bucket-{name})"></span>'
        f"{html.escape(name)}</span>"
        for name in BUCKETS
    )
    return f'<div class="legend">{items}</div>'


def _series_rows(accounting: dict) -> list[tuple[str, str, dict]]:
    """(benchmark, series, breakdown) rows in presentation order."""
    rows = []
    for benchmark, by_series in accounting.items():
        for series in SERIES_ORDER:
            if series in by_series:
                rows.append((benchmark, series, by_series[series]))
        for series in by_series:            # unknown series still render
            if series not in SERIES_ORDER:
                rows.append((benchmark, series, by_series[series]))
    return rows


def _stacked_bars(accounting: dict) -> str:
    rows = _series_rows(accounting)
    if not rows:
        return "<p class='sub'>no accounting data in this report</p>"
    max_cycles = max(r[2].get("total_cycles", 0) for r in rows) or 1
    benches = list(dict.fromkeys(r[0] for r in rows))
    height = len(rows) * _ROW_H + len(benches) * 18 + 8
    parts = [
        f'<svg role="img" width="{_LEFT + _PLOT_W + _LABEL_W}" '
        f'height="{height}" '
        f'aria-label="Stacked cycle-accounting bars per benchmark">'
    ]
    y = 4
    last_bench = None
    for benchmark, series, breakdown in rows:
        if benchmark != last_bench:
            y += 14
            parts.append(
                f'<text class="bench" x="0" y="{y}">'
                f"{html.escape(benchmark)}</text>"
            )
            y += 4
            last_bench = benchmark
        total = breakdown.get("total_cycles", 0)
        label = SERIES_LABEL.get(series, series)
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + _BAR_H - 4}" '
            f'text-anchor="end">{html.escape(label)}</text>'
        )
        x = float(_LEFT)
        buckets = breakdown.get("buckets", {})
        segments = [(n, buckets.get(n, 0)) for n in BUCKETS
                    if buckets.get(n, 0) > 0]
        for index, (name, cycles) in enumerate(segments):
            width = cycles / max_cycles * _PLOT_W
            draw_w = max(width - (_GAP if index < len(segments) - 1 else 0),
                         0.5)
            # Rounded data-end on the last segment only; square elsewhere.
            radius = 4 if index == len(segments) - 1 else 0
            share = cycles / total if total else 0.0
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{draw_w:.1f}" '
                f'height="{_BAR_H}" rx="{radius}" '
                f'fill="var(--bucket-{name})">'
                f"<title>{html.escape(benchmark)} {html.escape(label)} — "
                f"{html.escape(name)}: {cycles:,} cycles "
                f"({share:.1%})</title></rect>"
            )
            x += width
        parts.append(
            f'<text class="value" x="{_LEFT + total / max_cycles * _PLOT_W + 6:.1f}" '
            f'y="{y + _BAR_H - 4}">{total:,}</text>'
        )
        y += _ROW_H
    parts.append("</svg>")
    return "".join(parts)


def _heatmap(utilization: dict) -> str:
    benches = [b for b, util in utilization.items()
               if util and util.get("per_stripe")]
    if not benches:
        return "<p class='sub'>no fabric-utilization data in this report</p>"
    num_stripes = max(
        len(utilization[b]["per_stripe"]) for b in benches)
    cell, gap = 26, 2
    width = _LEFT + num_stripes * (cell + gap) + 140
    height = 22 + len(benches) * (cell + gap) + 8
    steps = len(SEQUENTIAL_RAMP)
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'aria-label="Per-stripe fabric occupancy heatmap">'
    ]
    for stripe in range(num_stripes):
        parts.append(
            f'<text x="{_LEFT + stripe * (cell + gap) + cell / 2:.0f}" '
            f'y="12" text-anchor="middle">{stripe}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + num_stripes * (cell + gap) + 8}" y="12">'
        "placed-PE / fill</text>"
    )
    y = 22
    for benchmark in benches:
        util = utilization[benchmark]
        parts.append(
            f'<text class="bench" x="0" y="{y + cell - 9}">'
            f"{html.escape(benchmark)}</text>"
        )
        for entry in util["per_stripe"]:
            occ = entry.get("occupancy", 0.0)
            quantile = min(int(occ * steps), steps - 1)
            x = _LEFT + entry["stripe"] * (cell + gap)
            parts.append(
                f'<rect class="q{quantile}" x="{x}" y="{y}" '
                f'width="{cell}" height="{cell}" rx="3">'
                f"<title>{html.escape(benchmark)} stripe "
                f"{entry['stripe']}: occupancy {occ:.1%} "
                f"({entry['placed_pe_invocations']:,} placed-PE "
                f"invocations)</title></rect>"
            )
        parts.append(
            f'<text class="value" '
            f'x="{_LEFT + num_stripes * (cell + gap) + 8}" '
            f'y="{y + cell - 9}">'
            f"{util.get('placed_pe_ratio', 0.0):.1%} / "
            f"{util.get('stripe_fill', 0.0):.1%}</text>"
        )
        y += cell + gap
    parts.append("</svg>")
    return "".join(parts)


def _accounting_table(accounting: dict) -> str:
    heads = "".join(
        f"<th>{html.escape(n)}</th>" for n in BUCKETS)
    rows = []
    for benchmark, series, breakdown in _series_rows(accounting):
        buckets = breakdown.get("buckets", {})
        cells = "".join(
            f"<td>{buckets.get(n, 0):,}</td>" for n in BUCKETS)
        conserved = breakdown.get("conserved", False)
        verdict = ("ok" if conserved
                   else f'<span class="fail">residual '
                        f"{breakdown.get('residual', '?')}</span>")
        rows.append(
            f"<tr><td>{html.escape(benchmark)}</td>"
            f"<td>{html.escape(SERIES_LABEL.get(series, series))}</td>"
            f"<td>{breakdown.get('total_cycles', 0):,}</td>"
            f"{cells}<td>{verdict}</td></tr>"
        )
    return (
        "<table><thead><tr><th>benchmark</th><th>series</th>"
        f"<th>cycles</th>{heads}<th>conserved</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _utilization_table(utilization: dict) -> str:
    rows = []
    for benchmark, util in utilization.items():
        if not util:
            continue
        reuse = util.get("reuse_distance", {})
        mean = reuse.get("mean")
        rows.append(
            f"<tr><td>{html.escape(benchmark)}</td>"
            f"<td></td>"
            f"<td>{util.get('total_invocations', 0):,}</td>"
            f"<td>{util.get('reconfigurations', 0):,}</td>"
            f"<td>{util.get('placed_pe_ratio', 0.0):.1%}</td>"
            f"<td>{util.get('stripe_fill', 0.0):.1%}</td>"
            f"<td>{reuse.get('count', 0):,}</td>"
            f"<td>{'—' if mean is None else f'{mean:.1f}'}</td></tr>"
        )
    if not rows:
        return ""
    return (
        "<table><thead><tr><th>benchmark</th><th></th>"
        "<th>invocations</th><th>reconfigs</th><th>placed-PE ratio</th>"
        "<th>stripe fill</th><th>reloads</th><th>mean reuse dist</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _wallclock_section(report: dict) -> str:
    """Host wall-clock summary from the report's existing ``profile`` /
    ``wall_clock_seconds`` / ``cache`` blocks (pure rendering — the
    bench report itself is unchanged by this panel)."""
    profile = report.get("profile") or {}
    sections = profile.get("sections_seconds") or {}
    if not sections:
        return ""
    wall = float(report.get("wall_clock_seconds", 0.0) or 0.0)
    cache = report.get("cache") or {}
    widest = max(sections.values()) or 1.0
    rows = sorted(sections.items(), key=lambda kv: -kv[1])
    height = len(rows) * _ROW_H + 8
    parts = [
        f'<svg role="img" width="{_LEFT + _PLOT_W + _LABEL_W}" '
        f'height="{height}" '
        f'aria-label="Host wall-clock seconds per span name">'
    ]
    y = 4
    for name, seconds in rows:
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + _BAR_H - 4}" '
            f'text-anchor="end">{html.escape(name)}</text>'
        )
        width = max(seconds / widest * _PLOT_W, 0.5)
        share = seconds / wall if wall else 0.0
        parts.append(
            f'<rect x="{_LEFT}" y="{y}" width="{width:.1f}" '
            f'height="{_BAR_H}" rx="4" fill="var(--bucket-host)">'
            f"<title>{html.escape(name)}: {seconds:.3f}s "
            f"({share:.1%} of wall clock)</title></rect>"
        )
        parts.append(
            f'<text class="value" x="{_LEFT + width + 6:.1f}" '
            f'y="{y + _BAR_H - 4}">{seconds:.3f}s</text>'
        )
        y += _ROW_H
    parts.append("</svg>")
    hit_ratio = cache.get("hit_ratio")
    ratio_note = (
        f" · cache hit ratio {hit_ratio:.0%}" if hit_ratio is not None
        else ""
    )
    return f"""
  <h2>Host wall clock</h2>
  <p class="sub">Wall-clock seconds per span name (host process,
  monotonic clock) against a total of
  {wall:.2f}s{html.escape(ratio_note)}. Spans nest and
  <code>workers.*</code> sums the pool's processes, so they need not sum
  to the total.</p>
  <div class="card">
    {''.join(parts)}
  </div>
"""


def render_dashboard(report: dict) -> str:
    """The complete ``index.html`` document for one bench report."""
    geomean = report.get("geomean", {})
    tiles = "".join(
        f'<div class="tile"><div class="label">geomean '
        f"{html.escape(SERIES_LABEL.get(series, series))}</div>"
        f'<div class="value">{geomean[series]:.2f}×</div></div>'
        for series in ("spec", "no_spec", "mapping") if series in geomean
    )
    warnings = "".join(
        f'<p class="warn">⚠ {html.escape(w)}</p>'
        for w in report.get("warnings", [])
    )
    fingerprint = (report.get("code_fingerprint") or "")[:12] or "unknown"
    sub = (
        f"fig8 sweep @ scale {report.get('scale', '?')} · "
        f"schema v{report.get('schema_version', '?')} · "
        f"code {fingerprint} · wall clock "
        f"{report.get('wall_clock_seconds', 0.0):.2f}s"
    )
    accounting = report.get("accounting", {})
    utilization = report.get("fabric_utilization", {})
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
  <meta charset="utf-8">
  <meta name="viewport" content="width=device-width, initial-scale=1">
  <title>DynaSpAM bench dashboard</title>
{_style()}
</head>
<body>
  <h1>DynaSpAM bench dashboard</h1>
  <p class="sub">{html.escape(sub)}</p>
  {warnings}
  <div class="tiles">{tiles}</div>

  <h2>Cycle accounting</h2>
  <p class="sub">Every simulated cycle charged to exactly one bucket;
  bars are absolute cycles on a shared scale. Hover a segment for exact
  numbers; the table below carries every value.</p>
  <div class="card">
    {_legend()}
    {_stacked_bars(accounting)}
  </div>

  <h2>Fabric utilization</h2>
  <p class="sub">Invocation-weighted occupancy per stripe (accelerated
  runs, darker = fuller). The right column is whole-fabric placed-PE
  ratio / stripe fill.</p>
  <div class="card">
    {_heatmap(utilization)}
  </div>

{_wallclock_section(report)}

  <h2>Table view</h2>
  <div class="card">
    {_accounting_table(accounting)}
  </div>
  <div class="card" style="margin-top: 16px">
    {_utilization_table(utilization)}
  </div>
</body>
</html>
"""


def write_dashboard(report: dict, out_dir) -> Path:
    """Render ``report`` into ``out_dir/index.html`` and return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "index.html"
    path.write_text(render_dashboard(report))
    return path
