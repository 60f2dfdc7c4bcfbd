"""The shipped corpus end-to-end through the CLI: every program must
ingest cleanly and simulate through the full baseline/DynaSpAM stack
with conserved cycle accounting."""

import json
import pathlib

import pytest

from repro.__main__ import main

CORPUS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "corpus").glob("*.spam")
)
CORPUS_IDS = [p.stem for p in CORPUS]


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_ingest_json(path, capsys):
    assert main(["ingest", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abbrev"].startswith(f"PROG:{path.stem}:")
    assert report["lowered"]["dynamic_count"] > 0


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_ingest_with_full_pipeline(path, capsys):
    assert main(["ingest", str(path), "--passes", "lvn,dce,licm",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passes"] == ["lvn", "dce", "licm"]


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_run_program_json_conserves_cycles(path, capsys):
    assert main(["run", "--program", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["benchmark"] == report["program"]["abbrev"]
    for series in ("baseline", "dynaspam"):
        assert report["cycle_accounting"][series]["conserved"], (
            f"{path.stem}: {series} cycle buckets leak")


def test_emit_ir_round_trips(capsys):
    path = str(CORPUS[0])
    assert main(["ingest", path, "--passes", "lvn,dce", "--emit-ir"]) == 0
    printed = capsys.readouterr().out
    from repro.lang import check_module, parse_module

    module = parse_module(printed, filename="<emitted>")
    check_module(module, allow_reserved=True)


def test_bfs_like_and_reduction_like_kernels_exist():
    assert "bfs_frontier" in CORPUS_IDS
    assert "sum_loop" in CORPUS_IDS
