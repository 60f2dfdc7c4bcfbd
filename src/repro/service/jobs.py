"""Job model: validated requests and their lifecycle records.

A :class:`JobRequest` is the canonical form of one simulation request
(benchmark + scale + config knobs).  Its :attr:`~JobRequest.flight_key`
is built from the harness ``RunKey``s, so two requests that would hit
the same cache entries coalesce into one flight — the same identity the
run caches use, which is what makes single-flight dedup safe.

A :class:`Job` is one *submission*: several jobs may share a flight but
each keeps its own id, timestamps, and state machine
(``queued -> running -> done | failed``).
"""

from __future__ import annotations

import functools
import math
import time
import uuid
from dataclasses import dataclass, field

from repro.service.errors import InvalidJob
from repro.workloads import ALL_ABBREVS, BENCHMARKS

VALID_MODES = ("baseline", "mapping_only", "accelerate")
VALID_MAPPERS = ("resource_aware", "naive")

#: Validation bounds.  Scale 1.0 is the paper's problem size; the cap
#: keeps one request from pinning a worker for hours.
MAX_SCALE = 16.0
MIN_TRACE_LENGTH, MAX_TRACE_LENGTH = 4, 256
MAX_FABRICS = 8

_REQUEST_FIELDS = (
    "benchmark", "scale", "mode", "speculation", "trace_length",
    "fabrics", "mapper", "decisions",
)


def validate_benchmark(name) -> str:
    """Canonical benchmark abbreviation, or :class:`InvalidJob`."""
    if not isinstance(name, str) or not name.strip():
        raise InvalidJob(f"benchmark must be a non-empty string, got {name!r}")
    abbrev = name.strip().upper()
    if abbrev not in BENCHMARKS:
        raise InvalidJob(
            f"unknown benchmark {name!r}; available: {', '.join(ALL_ABBREVS)}"
        )
    return abbrev


def validate_scale(scale) -> float:
    """Scale as a bounded positive float, or :class:`InvalidJob`."""
    if isinstance(scale, bool):
        raise InvalidJob(f"invalid scale {scale!r}: must be a number")
    try:
        value = float(scale)
    except (TypeError, ValueError):
        raise InvalidJob(f"invalid scale {scale!r}: must be a number") from None
    if not math.isfinite(value) or not 0.0 < value <= MAX_SCALE:
        raise InvalidJob(
            f"invalid scale {scale!r}: must be finite and in (0, {MAX_SCALE:g}]"
        )
    return value


def _validate_int(name: str, value, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidJob(f"invalid {name} {value!r}: must be an integer")
    if not low <= value <= high:
        raise InvalidJob(
            f"invalid {name} {value!r}: must be in [{low}, {high}]"
        )
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated simulation request (the unit of dedup and caching)."""

    benchmark: str
    scale: float = 1.0
    mode: str = "accelerate"
    speculation: bool = True
    trace_length: int = 32
    fabrics: int = 1
    mapper: str = "resource_aware"
    #: Attach the decision-record block (trace fates, lost-cycle
    #: attribution) to the report.  Forces a traced execution, so it is
    #: part of the flight identity.
    decisions: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark",
                           validate_benchmark(self.benchmark))
        object.__setattr__(self, "scale", validate_scale(self.scale))
        if self.mode not in VALID_MODES:
            raise InvalidJob(
                f"invalid mode {self.mode!r}; one of: {', '.join(VALID_MODES)}"
            )
        if self.mapper not in VALID_MAPPERS:
            raise InvalidJob(
                f"invalid mapper {self.mapper!r}; "
                f"one of: {', '.join(VALID_MAPPERS)}"
            )
        if not isinstance(self.speculation, bool):
            raise InvalidJob(
                f"invalid speculation {self.speculation!r}: must be a boolean"
            )
        if not isinstance(self.decisions, bool):
            raise InvalidJob(
                f"invalid decisions {self.decisions!r}: must be a boolean"
            )
        _validate_int("trace_length", self.trace_length,
                      MIN_TRACE_LENGTH, MAX_TRACE_LENGTH)
        _validate_int("fabrics", self.fabrics, 1, MAX_FABRICS)

    @classmethod
    def from_payload(cls, payload) -> "JobRequest":
        """Build a request from a decoded JSON body, rejecting junk keys."""
        if not isinstance(payload, dict):
            raise InvalidJob("request body must be a JSON object")
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise InvalidJob(
                f"unknown field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(_REQUEST_FIELDS)}"
            )
        if "benchmark" not in payload:
            raise InvalidJob("missing required field: benchmark")
        return cls(**payload)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REQUEST_FIELDS}

    # ------------------------------------------------------------------
    # Harness plumbing
    # ------------------------------------------------------------------
    def specs(self) -> list:
        """The harness ``RunSpec``s this request resolves to."""
        from repro.core import DynaSpAMConfig
        from repro.harness.runner import baseline_spec, dynaspam_spec

        config = DynaSpAMConfig(
            mode=self.mode,
            speculation=self.speculation,
            trace_length=self.trace_length,
            num_fabrics=self.fabrics,
            mapper=self.mapper,
        )
        return [
            baseline_spec(self.benchmark, self.scale),
            dynaspam_spec(self.benchmark, self.scale, config=config),
        ]

    @functools.cached_property
    def flight_key(self) -> tuple:
        """Cache-layer identity: equal keys may share one execution.

        ``decisions`` is appended because a decisions run carries an extra
        report block — it must not coalesce with (or serve) a plain run.
        Built once per request: the scheduler reads it on every pass over
        the queue while the pool is full.
        """
        return tuple(spec.key for spec in self.specs()) + (
            ("decisions", self.decisions),
        )

    @property
    def run_key(self) -> str:
        """Short stable digest of :attr:`flight_key` — the correlation id
        spans and log lines carry (the raw key is a deep tuple)."""
        import hashlib

        return hashlib.sha256(
            repr(self.flight_key).encode()
        ).hexdigest()[:12]

    def execute(self) -> dict:
        """Run (or cache-resolve) the simulation and build the report."""
        from repro.harness.runner import simulation_report

        return simulation_report(
            self.benchmark,
            self.scale,
            mode=self.mode,
            speculation=self.speculation,
            trace_length=self.trace_length,
            num_fabrics=self.fabrics,
            mapper=self.mapper,
            decisions=self.decisions,
        )


class JobState:
    """String states of a job's lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    ALL = (QUEUED, RUNNING, DONE, FAILED)


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class Job:
    """One submission's lifecycle record.

    Epoch stamps (``created_at``/``started_at``/``finished_at``) are for
    display — clients render calendar times from them.  Durations come
    from the ``*_mono`` monotonic twins: an NTP step between submit and
    finish would silently corrupt any ``time.time()`` subtraction.
    """

    request: JobRequest
    id: str = field(default_factory=new_job_id)
    state: str = JobState.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    created_mono: float = field(default_factory=time.monotonic)
    started_mono: float | None = None
    finished_mono: float | None = None
    result: dict | None = None
    error: str | None = None
    #: True when this job attached to another job's in-flight execution.
    coalesced: bool = False

    @property
    def queue_wait_seconds(self) -> float | None:
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.created_mono)

    @property
    def run_seconds(self) -> float | None:
        if self.started_mono is None or self.finished_mono is None:
            return None
        return max(0.0, self.finished_mono - self.started_mono)

    def to_doc(self, include_result: bool = True) -> dict:
        doc = {
            "id": self.id,
            "state": self.state,
            "request": self.request.as_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": self.queue_wait_seconds,
            "run_seconds": self.run_seconds,
            "coalesced": self.coalesced,
            "error": self.error,
        }
        if include_result:
            doc["result"] = self.result
        return doc
