"""Golden bytes of ``repro explain``: the ranked table and a detail view.

``golden_explain.json`` records, per kernel, the sha256 of stdout from
``repro explain K --scale 0.05 --top 0`` and from ``--trace-id`` on the
kernel's top-ranked trace (whose id is recorded next to the digests).
Both engine tiers must print these exact bytes.  Regenerate the file
only for an intended change of output::

    PYTHONPATH=src python -m tests.obs.test_explain_golden
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.engine import use_fastpath
from repro.obs import MemorySink
from repro.workloads import ALL_ABBREVS

SCALE = "0.05"
GOLDEN = Path(__file__).with_name("golden_explain.json")


def _explain(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["explain", *argv]) == 0
    return out.getvalue()


def _table(kernel: str) -> str:
    return _explain(kernel, "--scale", SCALE, "--top", "0")


def _detail(kernel: str, trace_id: str) -> str:
    return _explain(kernel, "--scale", SCALE, "--trace-id", trace_id)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fast", [False, True], ids=["interp", "fast"])
@pytest.mark.parametrize("kernel", ALL_ABBREVS)
def test_explain_output_matches_golden(kernel, fast):
    golden = json.loads(GOLDEN.read_text())[kernel]
    with use_fastpath(fast):
        table = _table(kernel)
        detail = _detail(kernel, golden["trace_id"])
    assert _digest(table) == golden["table"]
    assert _digest(detail) == golden["detail"]


def test_explain_holds_no_event_buffer(monkeypatch):
    """Explain folds the stream as it runs: a ``MemorySink`` ring far too
    small for KM's 705 events changes none of its bytes."""
    monkeypatch.setattr(MemorySink.__init__, "__defaults__", (64,))
    golden = json.loads(GOLDEN.read_text())["KM"]
    assert _digest(_table("KM")) == golden["table"]
    assert _digest(_detail("KM", golden["trace_id"])) == golden["detail"]


def _regenerate() -> None:
    doc = {}
    for kernel in ALL_ABBREVS:
        table = _table(kernel)
        # Table rows are ranked, so the first one is the top trace.
        trace_id = next(
            line.split()[0] for line in table.splitlines()
            if line.startswith("0x")
        )
        doc[kernel] = {
            "table": _digest(table),
            "trace_id": trace_id,
            "detail": _digest(_detail(kernel, trace_id)),
        }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
