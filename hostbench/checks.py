"""Output checks and the statistics the benchmark reports.

A run is correct only if every operation's simulated result digests
equal to the reference stored in ``reference.json``, which was made at
the commit that introduced the benchmark.  A change that makes the
simulator faster but alters any simulated number therefore fails its
operations instead of reporting a gain.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Host-engine bookkeeping counters in ``PipelineStats``: they count the
#: simulator's own memo and batching work, not anything simulated, and
#: the repository's identity gates scrub them for the same reason.  They
#: are left out of every digest so removing an engine tier is not
#: mistaken for a change in simulated results.
ENGINE_COUNTERS = frozenset({
    "invocation_memo_hits",
    "invocation_memo_misses",
    "batched_invocations",
    "predict_memo_hits",
    "predict_memo_misses",
})


def refuse_overrides(environ=os.environ) -> list[str]:
    """Names of set ``REPRO_*`` variables.  Any of them switches an engine
    tier, telemetry or the caches away from the shipped defaults."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def beyond(samples, pct: float) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    cut = percentile(samples, pct)
    return sum(1 for value in samples if value > cut)


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scrub_stats(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k not in ENGINE_COUNTERS}


def run_digest(result) -> str:
    """Digest of one simulated run: cycles plus every stats counter."""
    return _digest({
        "cycles": result.cycles,
        "stats": scrub_stats(result.stats.as_dict()),
    })


def report_digest(report: dict) -> str:
    """Digest of one service job report.

    The code fingerprint changes with every source edit, so it is
    dropped; engine counters are scrubbed from both stats blocks.  The
    report is normalised through JSON first, so an in-process report and
    one decoded from the wire digest alike.
    """
    doc = json.loads(json.dumps(report))
    doc.pop("code_fingerprint", None)
    for block in ("stats", "baseline_stats"):
        if isinstance(doc.get(block), dict):
            doc[block] = scrub_stats(doc[block])
    return _digest(doc)


def payload_key(payload: dict) -> str:
    return f"{payload['benchmark']}@{payload['scale']!r}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
