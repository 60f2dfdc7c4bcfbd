"""Pass-impact study: how optimization pipelines change what DynaSpAM
detects, maps, and squashes.

ROADMAP item 2's open question (and the arXiv 2307.02847 experiment):
does LICM help or hurt trace detection on control-heavy programs?  Does
LVN+DCE shrink traces enough to change mapping feasibility?  The study
harness answers it mechanically: every ``.spam`` corpus program runs
under each pass pipeline with decision records enabled, and the report
lays the per-pipeline detection/mapping/squash outcomes side by side,
with deltas against the unoptimized baseline pipeline.

Everything resolves through the disk run cache (each (program, passes)
pair has its own content-hash benchmark abbreviation), so re-running a
study only simulates what changed.
"""

from __future__ import annotations

import pathlib

from repro.harness.runner import program_simulation_report, report_provenance

#: Default pipelines, baseline first: the ``repro study`` and CI
#: ``study-smoke`` matrix.
DEFAULT_PIPELINES: tuple[tuple[str, ...], ...] = (
    (),
    ("lvn", "dce"),
    ("licm",),
)


def pipeline_label(passes: tuple[str, ...]) -> str:
    return "+".join(passes) if passes else "none"


def _row(report: dict) -> dict:
    """Flatten one decision-enabled program report into a study row."""
    decisions = report["decisions"]
    fates = decisions["trace_fates"]
    invocations = decisions["invocations"]
    return {
        "abbrev": report["program"]["abbrev"],
        "dynamic_instructions": report["dynamic_instructions"],
        "baseline_cycles": report["baseline_cycles"],
        "dynaspam_cycles": report["dynaspam_cycles"],
        "speedup": report["speedup"],
        "fabric_coverage": report["coverage"]["fabric"],
        "windows": decisions["windows"],
        "fates": fates["counts"],
        "unmappable_reasons": fates["unmappable_reasons"],
        "conserved": fates["conserved"],
        "mapping": decisions["mapping"],
        "invocations": {
            "committed": invocations["committed"],
            "squashed_branch": invocations["squashed_branch"],
            "squashed_memory": invocations["squashed_memory"],
            "deferred": invocations["deferred"],
        },
    }


def _delta(row: dict, base: dict) -> dict:
    """Per-row deltas vs the baseline pipeline's row."""
    return {
        "dynamic_instructions": (row["dynamic_instructions"]
                                 - base["dynamic_instructions"]),
        "dynaspam_cycles": row["dynaspam_cycles"] - base["dynaspam_cycles"],
        "speedup": row["speedup"] - base["speedup"],
        "windows_total": (row["windows"]["total"]
                          - base["windows"]["total"]),
        "offloaded": (row["fates"]["offloaded"]
                      - base["fates"]["offloaded"]),
        "unmappable": (row["fates"]["unmappable"]
                       - base["fates"]["unmappable"]),
        "committed": (row["invocations"]["committed"]
                      - base["invocations"]["committed"]),
        "squashed": (
            row["invocations"]["squashed_branch"]
            + row["invocations"]["squashed_memory"]
            - base["invocations"]["squashed_branch"]
            - base["invocations"]["squashed_memory"]
        ),
    }


def study_programs(
    programs_dir: str,
    pipelines: tuple[tuple[str, ...], ...] = DEFAULT_PIPELINES,
    only: tuple[str, ...] | None = None,
    tracker=None,
    **sim_knobs,
) -> dict:
    """Run every corpus program under every pipeline with decisions on.

    Returns the study report::

        {"pipelines": ["none", "lvn+dce", ...],
         "programs": {stem: {pipeline_label: row + "delta"}},
         "conserved": bool}    # every row's fates conserved

    ``only`` restricts to the named program stems.  Raises ``ValueError``
    when the directory has no (matching) programs; ``repro.lang`` errors
    propagate for the CLI to format.

    ``tracker`` (an ``repro.obs.progress.ProgressTracker``) receives one
    ``advance`` per finished study cell; its total is set here once the
    corpus has been globbed (programs x pipelines).
    """
    pipelines = tuple(dict.fromkeys(pipelines))  # dedup, keep order
    if not pipelines:
        raise ValueError("no pass pipelines to study")
    paths = sorted(pathlib.Path(programs_dir).glob("*.spam"))
    if only:
        wanted = set(only)
        paths = [p for p in paths if p.stem in wanted]
        missing = wanted - {p.stem for p in paths}
        if missing:
            raise ValueError(
                f"no programs named {', '.join(sorted(missing))} under "
                f"{programs_dir}"
            )
    if not paths:
        raise ValueError(f"no .spam programs under {programs_dir}")

    labels = [pipeline_label(p) for p in pipelines]
    if tracker is not None:
        tracker.total = len(paths) * len(pipelines)
    programs: dict[str, dict] = {}
    conserved = True
    for path in paths:
        rows: dict[str, dict] = {}
        for passes in pipelines:
            label = pipeline_label(passes)
            report = program_simulation_report(
                str(path), passes, decisions=True, **sim_knobs
            )
            rows[label] = _row(report)
            if tracker is not None:
                tracker.advance(
                    1,
                    int(report["dynamic_instructions"]),
                    detail=f"{path.stem}/{label}",
                )
        base = rows[labels[0]]
        for label, row in rows.items():
            row["delta"] = _delta(row, base)
            conserved = conserved and row["conserved"]
        programs[path.stem] = rows
    return {
        **report_provenance(),
        "experiment": "study",
        "programs_dir": str(programs_dir),
        "pipelines": labels,
        "programs": programs,
        "conserved": conserved,
    }


def render_study(study: dict) -> str:
    """Human rendering: one side-by-side table per program."""
    from repro.harness.reporting import format_table

    labels = study["pipelines"]
    base_label = labels[0]
    lines = [
        f"pass-impact study over {study['programs_dir']} "
        f"({len(study['programs'])} programs x "
        f"{len(labels)} pipelines; deltas vs '{base_label}')"
    ]
    metrics = [
        ("dynamic instrs", lambda r: r["dynamic_instructions"]),
        ("DynaSpAM cycles", lambda r: r["dynaspam_cycles"]),
        ("speedup", lambda r: f"{r['speedup']:.2f}"),
        ("fabric coverage", lambda r: f"{r['fabric_coverage']:.1%}"),
        ("windows", lambda r: r["windows"]["total"]),
        ("offloaded traces", lambda r: r["fates"]["offloaded"]),
        ("unmappable traces", lambda r: r["fates"]["unmappable"]),
        ("mapping attempts", lambda r: r["mapping"]["attempts"]),
        ("committed invocations",
         lambda r: r["invocations"]["committed"]),
        ("squashed invocations",
         lambda r: (r["invocations"]["squashed_branch"]
                    + r["invocations"]["squashed_memory"])),
        ("deferred invocations",
         lambda r: r["invocations"]["deferred"]),
    ]
    for stem, rows in study["programs"].items():
        table_rows = []
        for name, getter in metrics:
            table_rows.append(
                [name] + [getter(rows[label]) for label in labels]
            )
        lines.append("")
        lines.append(
            format_table(["metric"] + list(labels), table_rows, title=stem)
        )
    state = "PASS" if study["conserved"] else "FAIL"
    lines.append("")
    lines.append(f"decision conservation across all rows: {state}")
    return "\n".join(lines)
