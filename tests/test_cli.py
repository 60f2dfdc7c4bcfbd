"""Tests for the top-level command line interface."""

import json

import pytest

from repro.__main__ import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for abbrev in ("KM", "BFS", "SRAD"):
        assert abbrev in out


def test_run_command_human_readable(capsys):
    assert main(["run", "KM", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "coverage" in out
    assert "energy" in out


def test_run_command_json(capsys):
    assert main(["run", "KM", "--scale", "0.05", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["benchmark"] == "KM"
    assert report["speedup"] > 0
    assert set(report["coverage"]) == {"host", "mapping", "fabric"}
    assert 0 <= report["energy_reduction"] < 1


def test_run_command_modes(capsys):
    assert main(["run", "KM", "--scale", "0.05", "--mode", "baseline",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["offloaded_traces"] == 0
    assert report["speedup"] == pytest.approx(1.0)


def test_run_command_no_speculation(capsys):
    assert main(["run", "NW", "--scale", "0.05", "--no-speculation",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["speculation"] is False


def test_run_unknown_benchmark(capsys):
    assert main(["run", "NOPE"]) == 2


def test_harness_delegation(capsys):
    assert main(["harness", "table6"]) == 0
    out = capsys.readouterr().out
    assert "2.9 mm^2" in out


def test_harness_delegation_forwards_perf_flags(capsys):
    assert main(["harness", "table6", "--no-cache", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile: per-phase wall clock" in out


def test_harness_prints_table4(capsys):
    assert main(["harness", "table4"]) == 0
    out = capsys.readouterr().out
    assert "Table 4: Evaluation system parameters" in out
    assert "192-entry ROB" in out


def test_harness_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harness", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "python -m repro harness" in err
    assert "invalid choice: 'nope'" in err


def test_bench_command_writes_report(tmp_path, capsys, monkeypatch):
    import repro.harness.diskcache as diskcache

    monkeypatch.setenv(diskcache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    diskcache.configure()
    out_path = tmp_path / "BENCH_speedup.json"
    try:
        assert main(["bench", "--scale", "0.05", "--jobs", "2",
                     "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    printed = capsys.readouterr().out
    assert "geomean speedup" in printed

    report = json.loads(out_path.read_text())
    assert report["experiment"] == "fig8"
    assert report["wall_clock_seconds"] > 0
    assert set(report["geomean"]) == {"mapping", "no_spec", "spec"}
    assert len(report["per_benchmark"]) == 11
    assert "disk" in report["cache"]


def test_bench_command_no_cache(tmp_path, capsys):
    import repro.harness.diskcache as diskcache

    out_path = tmp_path / "bench.json"
    try:
        assert main(["bench", "--scale", "0.05", "--no-cache",
                     "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    report = json.loads(out_path.read_text())
    assert report["disk_cache_enabled"] is False


def test_run_invalid_scale_is_clean_usage_error(capsys):
    assert main(["run", "KM", "--scale", "-1"]) == 2
    err = capsys.readouterr().err
    assert "invalid scale" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_run_unknown_benchmark_is_clean_usage_error(capsys):
    assert main(["run", "NOPE", "--scale", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_submit_unknown_benchmark_fails_before_connecting(capsys):
    assert main(["submit", "NOPE", "--wait"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark" in err
    assert len(err.strip().splitlines()) == 1


def test_submit_invalid_scale_fails_before_connecting(capsys):
    assert main(["submit", "KM", "--scale", "0"]) == 2
    err = capsys.readouterr().err
    assert "invalid scale" in err


def test_submit_unreachable_server_is_one_line_error(capsys):
    # Port 1 is never listening; expect exit 1 and a single stderr line.
    assert main(["submit", "KM", "--scale", "0.05",
                 "--port", "1", "--timeout", "2"]) == 1
    err = capsys.readouterr().err
    assert "cannot reach repro service" in err
    assert "Traceback" not in err


def test_bench_cold_reports_real_simulation(tmp_path, capsys):
    import repro.harness.diskcache as diskcache

    out_path = tmp_path / "bench_cold.json"
    try:
        assert main(["bench", "--scale", "0.05", "--jobs", "2", "--cold",
                     "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    report = json.loads(out_path.read_text())
    assert report["cold"] is True
    assert report["disk_cache_enabled"] is False
    assert report["cache"]["runs_simulated"] > 0
    # A cold sweep must never time a cached replay.
    assert report["cache"]["hit_ratio"] < 1.0
    printed = capsys.readouterr().out
    assert "cache hit ratio" in printed
    assert "(cold)" in printed


def _printed_profile(out: str) -> tuple[set, dict]:
    """Section names and counters from a printed ``--profile`` table."""
    sections, counters, block = set(), {}, None
    for line in out.splitlines():
        if line.startswith("profile: "):
            block = line.split()[1]
        elif block and line.startswith("  "):
            name, value = line.split()
            if block == "counters":
                counters[name] = int(value)
            else:
                sections.add(name)
        else:
            block = None
    return sections, counters


def test_bench_profile_prints_what_the_report_recorded(tmp_path, capsys):
    """The table renders the report's ``profile`` block, so nothing
    after the sweep can add to it."""
    import repro.harness.diskcache as diskcache

    out_path = tmp_path / "bench.json"
    try:
        assert main(["bench", "--scale", "0.05", "--jobs", "2", "--cold",
                     "--profile", "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    report = json.loads(out_path.read_text())
    sections, counters = _printed_profile(capsys.readouterr().out)
    assert counters == report["profile"]["counters"]
    assert sections == set(report["profile"]["sections_seconds"])
    assert "pool.execute_runs" in sections


def test_bench_profile_matches_the_jsonl_span_log(tmp_path, monkeypatch):
    """Every surface reads one span stream: the report's section totals
    equal the JSONL log's span durations summed by name."""
    import repro.harness.diskcache as diskcache

    log_path = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_LOG", str(log_path))
    out_path = tmp_path / "bench.json"
    try:
        assert main(["bench", "--scale", "0.05", "--jobs", "2", "--cold",
                     "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    sections = json.loads(out_path.read_text())["profile"]["sections_seconds"]
    summed: dict[str, float] = {}
    for line in log_path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] != "span" or record["name"].startswith("cli."):
            continue  # cli.bench was still open when the report froze
        name = (record["name"] if record["process"] == "main"
                else f"workers.{record['name']}")
        summed[name] = summed.get(name, 0.0) + record["duration"]
    assert set(summed) == set(sections)
    for name, seconds in sections.items():
        assert seconds == pytest.approx(summed[name], abs=1e-6), name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cold_bench_simulates_each_run_once(tmp_path, monkeypatch, jobs):
    """The accounting block reads the sweep's own runs, so a cold bench
    simulates the 44 Figure 8 runs (11 kernels x baseline and three
    series) once each over the whole command."""
    import repro.harness.diskcache as diskcache
    from repro.obs.runtime import TRACER

    # main() resets the tracer on its way out: read the counter first.
    read = []
    reset = TRACER.reset

    def read_then_reset():
        read.append(TRACER.counters().get("runs_simulated", 0))
        reset()

    monkeypatch.setattr(TRACER, "reset", read_then_reset)
    before = TRACER.counters().get("runs_simulated", 0)
    try:
        assert main(["bench", "--scale", "0.05", "--jobs", jobs, "--cold",
                     "--output", str(tmp_path / "bench.json")]) == 0
    finally:
        diskcache.configure()
    assert len(read) == 1
    assert read[0] - before == 44


def test_serve_rejects_bad_knobs(capsys):
    assert main(["serve", "--workers", "0"]) == 2
    assert "invalid --workers" in capsys.readouterr().err
    assert main(["serve", "--queue-depth", "0"]) == 2
    assert "invalid --queue-depth" in capsys.readouterr().err


def test_run_json_stats_block_covers_every_counter(capsys):
    import dataclasses

    from repro.ooo.stats import PipelineStats

    assert main(["run", "KM", "--scale", "0.05", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    field_names = {f.name for f in dataclasses.fields(PipelineStats)}
    assert set(report["stats"]) == field_names
    assert set(report["baseline_stats"]) == field_names


def test_run_trace_out_keeps_json_stdout_pure(tmp_path, capsys):
    trace_path = tmp_path / "km.trace.json"
    assert main(["run", "KM", "--scale", "0.05", "--json",
                 "--trace-out", str(trace_path)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)     # stdout is a JSON doc, nothing else
    assert report["benchmark"] == "KM"
    assert "trace:" in captured.err
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]


def test_explain_command_table(capsys):
    assert main(["explain", "KM", "--scale", "0.05", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "traces detected" in out
    assert "offloaded" in out
    body = [line for line in out.splitlines() if line.startswith("0x")]
    assert 0 < len(body) <= 3


def test_explain_command_trace_detail(capsys):
    assert main(["explain", "KM", "--scale", "0.05", "--top", "1"]) == 0
    table = capsys.readouterr().out
    trace_id = next(
        line.split()[0] for line in table.splitlines()
        if line.startswith("0x")
    )
    assert main(["explain", "KM", "--scale", "0.05",
                 "--trace-id", trace_id]) == 0
    detail = capsys.readouterr().out
    assert trace_id in detail
    assert "timeline:" in detail


def test_explain_unknown_trace_id(capsys):
    assert main(["explain", "KM", "--scale", "0.05",
                 "--trace-id", "0xdead:-:1"]) == 2
    assert "no trace" in capsys.readouterr().err


def test_analyze_command_conserves(capsys):
    assert main(["analyze", "KM", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "cycle accounting" in out
    assert out.count("PASS") == 3         # host, mapping, spec columns
    assert "FAIL" not in out
    assert "d(spec-host)" in out
    assert "fabric:" in out


def test_analyze_command_mapping_baseline(capsys):
    assert main(["analyze", "KM", "--scale", "0.05",
                 "--baseline", "mapping"]) == 0
    out = capsys.readouterr().out
    assert "d(spec-mapping)" in out


def test_analyze_unknown_benchmark(capsys):
    assert main(["analyze", "NOPE"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_diff_command_attributes_delta(tmp_path, capsys):
    assert main(["run", "NW", "--scale", "0.05", "--json"]) == 0
    spec = capsys.readouterr().out
    assert main(["run", "NW", "--scale", "0.05", "--no-speculation",
                 "--json"]) == 0
    nospec = capsys.readouterr().out
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(spec)
    b.write_text(nospec)

    assert main(["diff", str(a), str(b)]) == 0
    pretty = capsys.readouterr().out
    assert "NW [dynaspam]" in pretty
    assert "residual +0" in pretty

    assert main(["diff", str(a), str(b), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "run"
    assert all(e["residual"] == 0 for e in doc["entries"])


def test_diff_command_schema_mismatch_is_usage_error(tmp_path, capsys):
    assert main(["run", "KM", "--scale", "0.05", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(dict(report, schema_version=1)))
    assert main(["diff", str(a), str(b)]) == 2
    assert "schema versions differ" in capsys.readouterr().err
    # --force downgrades the refusal to a warning in the output.
    assert main(["diff", str(a), str(b), "--force"]) == 0
    assert "schema versions differ" in capsys.readouterr().out


def test_diff_command_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "nope.json"),
                 str(tmp_path / "nada.json")]) == 2
    assert "cannot read report" in capsys.readouterr().err


def test_bench_report_has_provenance_accounting_and_dashboard(
        tmp_path, capsys):
    import repro.harness.diskcache as diskcache

    out_path = tmp_path / "bench.json"
    dash_dir = tmp_path / "dash"
    try:
        assert main(["bench", "--scale", "0.05", "--no-cache",
                     "--output", str(out_path),
                     "--dashboard", str(dash_dir)]) == 0
    finally:
        diskcache.configure()
    report = json.loads(out_path.read_text())
    assert report["schema_version"] >= 2
    assert len(report["code_fingerprint"]) == 64
    assert set(report["accounting"]) == set(report["per_benchmark"])
    for by_series in report["accounting"].values():
        assert set(by_series) == {"baseline", "mapping", "no_spec", "spec"}
        for breakdown in by_series.values():
            assert breakdown["conserved"] is True
    assert set(report["fabric_utilization"]) == set(report["per_benchmark"])
    assert isinstance(report["warnings"], list)
    html = (dash_dir / "index.html").read_text()
    assert "Cycle accounting" in html
    assert "dashboard ->" in capsys.readouterr().out


def test_bench_report_records_tracing_disabled(tmp_path, capsys):
    import repro.harness.diskcache as diskcache

    out_path = tmp_path / "bench.json"
    try:
        assert main(["bench", "--scale", "0.05", "--no-cache",
                     "--output", str(out_path)]) == 0
    finally:
        diskcache.configure()
    report = json.loads(out_path.read_text())
    assert report["tracing"] is False


# ---------------------------------------------------------------------------
# Frontend (repro.lang) subcommands
# ---------------------------------------------------------------------------
GOOD_SPAM = """\
@main {
  one: int = const 1;
  two: int = const 2;
  s: int = add one two;
  print s;
  ret;
}
"""


def test_ingest_command_human_readable(tmp_path, capsys):
    path = tmp_path / "tiny.spam"
    path.write_text(GOOD_SPAM)
    assert main(["ingest", str(path)]) == 0
    out = capsys.readouterr().out
    assert "differential check ok" in out
    assert "PROG:tiny:" in out


def test_ingest_parse_error_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.spam"
    path.write_text("@main {\n  x int = const 1;\n}\n")
    assert main(["ingest", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro: error: ")
    assert f"{path}:2:" in lines[0]


def test_ingest_type_error_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "typo.spam"
    path.write_text("@main {\n  x: int = add y y;\n  ret;\n}\n")
    assert main(["ingest", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0
    assert f"{path}:2:3" in err


def test_ingest_unknown_pass_is_exit_2(tmp_path, capsys):
    path = tmp_path / "tiny.spam"
    path.write_text(GOOD_SPAM)
    assert main(["ingest", str(path), "--passes", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_ingest_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "absent.spam")]) == 2
    assert "absent.spam" in capsys.readouterr().err


def test_run_program_rejects_conflicting_selection(tmp_path, capsys):
    path = tmp_path / "tiny.spam"
    path.write_text(GOOD_SPAM)
    assert main(["run", "KM", "--program", str(path)]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["run"]) == 2
    assert "missing benchmark" in capsys.readouterr().err
    assert main(["run", "KM", "--passes", "lvn"]) == 2
    assert "--program" in capsys.readouterr().err
    assert main(["run", "--program", str(path), "--scale", "0.5"]) == 2
    assert "--scale" in capsys.readouterr().err


def test_list_programs(tmp_path, capsys):
    (tmp_path / "a.spam").write_text(GOOD_SPAM)
    (tmp_path / "b.spam").write_text(GOOD_SPAM)
    assert main(["list", "--programs", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PROG:a:" in out and "PROG:b:" in out


def test_list_programs_empty_dir_is_exit_2(tmp_path, capsys):
    assert main(["list", "--programs", str(tmp_path)]) == 2
    assert "no .spam programs" in capsys.readouterr().err


CORPUS_DIR = str(
    __import__("pathlib").Path(__file__).resolve().parents[1] / "corpus"
)


def test_why_command_human_readable(capsys):
    assert main(["why", "KM", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "trace fates" in out
    assert "lost-cycles attribution" in out
    assert "conservation:" in out and "PASS" in out


def test_why_command_json(capsys):
    assert main(["why", "KM", "--scale", "0.05", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["benchmark"] == "KM"
    assert doc["decisions"]["trace_fates"]["conserved"] is True
    assert doc["decisions"]["attribution"]["attributed_fraction"] >= 0.95


def test_why_unknown_benchmark_is_usage_error(capsys):
    assert main(["why", "NOPE"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_run_decisions_flag_adds_block(capsys):
    assert main(["run", "KM", "--scale", "0.05", "--decisions",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decisions"]["trace_fates"]["conserved"] is True
    # Without the flag the block must stay absent (opt-in contract).
    assert main(["run", "KM", "--scale", "0.05", "--json"]) == 0
    assert "decisions" not in json.loads(capsys.readouterr().out)


def test_study_command_renders_side_by_side(capsys):
    assert main(["study", "--programs", CORPUS_DIR, "--only", "sum_loop",
                 "--passes", "none", "--passes", "lvn,dce"]) == 0
    out = capsys.readouterr().out
    assert "sum_loop" in out
    assert "lvn+dce" in out
    assert "decision conservation across all rows: PASS" in out


def test_study_command_writes_json_report(tmp_path, capsys):
    out_path = tmp_path / "study.json"
    assert main(["study", "--programs", CORPUS_DIR, "--only", "sum_loop",
                 "--passes", "none", "--output", str(out_path)]) == 0
    study = json.loads(out_path.read_text())
    assert study["experiment"] == "study"
    assert study["pipelines"] == ["none"]
    assert study["conserved"] is True
    row = study["programs"]["sum_loop"]["none"]
    assert row["abbrev"].startswith("PROG:sum_loop:")
    assert row["delta"]["speedup"] == 0


def test_study_empty_dir_is_usage_error(tmp_path, capsys):
    assert main(["study", "--programs", str(tmp_path)]) == 2
    assert "no .spam programs" in capsys.readouterr().err


def test_study_unknown_pass_is_usage_error(capsys):
    assert main(["study", "--programs", CORPUS_DIR,
                 "--passes", "nope"]) == 2
    assert "nope" in capsys.readouterr().err
