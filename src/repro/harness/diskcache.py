"""Content-addressed on-disk cache for completed runs.

It is the only run cache: ``repro.harness.runner`` keeps no result in
process, so a run resolves here or simulates, and with the layer
disabled every resolution simulates.

Entries are pickled values addressed by the SHA-256 of a canonical key
string built from ``(namespace, cache format version, code fingerprint,
key object)``.  The code fingerprint digests every ``repro`` source file,
so any code change — not just deliberate format bumps — invalidates the
whole cache rather than ever serving stale simulation results.

Each entry lives at ``<root>/<namespace>/<fingerprint[:16]>/<xx>/<digest>.pkl``
(``xx`` the digest's first two hex digits).  Entries of other code are
never read again, so a process's first put to a namespace removes every
other directory in it: older fingerprints, and the flat
``<namespace>/<xx>/`` layout that preceded fingerprint directories.  A
concurrent sweep or writer may remove entries first, which is tolerated;
reads never remove anything but a corrupt entry.

Writes are atomic (temp file + ``os.replace``); loads tolerate corruption
(any unpickle error counts as a miss and removes the bad file, so the
caller falls back to re-simulation).

Dynamic traces are not cached here: ``repro.workloads.generate_trace``
regenerates one in each process.  With shared records, all 11 kernels at
scale 1.0 regenerate in about 0.3 s and a pickle of them loads in about
0.1 s, but persisting would put a write on every cold run
(docs/internals.md section 7).

The cache root defaults to ``.repro_cache`` under the current directory
and can be overridden with the ``REPRO_CACHE_DIR`` environment variable or
``configure(root=...)``; ``REPRO_DISK_CACHE=0`` or ``configure(enabled=False)``
disables the layer entirely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from pathlib import Path

from repro.obs.runtime import TRACER

#: Bump when the on-disk layout or pickled value schema changes shape.
CACHE_FORMAT_VERSION = 1

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_DISK_CACHE = "REPRO_DISK_CACHE"
DEFAULT_CACHE_DIR = ".repro_cache"

_FALSE_VALUES = ("0", "false", "no", "off")


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (computed once per process)."""
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


#: Fingerprint directories this process has swept: a namespace is swept
#: on the first put of a process, not on every cache object (a service
#: worker reconfigures its caches for every flight).
_SWEPT: set[str] = set()


class DiskCache:
    """One namespace of the content-addressed cache."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        namespace: str = "runs",
        version: int = CACHE_FORMAT_VERSION,
        fingerprint: str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.namespace = namespace
        self.version = version
        self.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        #: This code's directory; its siblings belong to other code.
        self.directory = self.root / namespace / self.fingerprint[:16]
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.writes = 0

    # ------------------------------------------------------------------
    def path_for(self, key_obj) -> Path:
        """Deterministic file path for a key object.

        ``repr`` of the key must be stable and value-complete — run keys
        are frozen tuples of primitives, which satisfy both.
        """
        canonical = repr(
            (self.namespace, self.version, self.fingerprint, key_obj)
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        return self.directory / digest[:2] / f"{digest}.pkl"

    def get(self, key_obj):
        """Cached value for ``key_obj``, or ``None`` on miss/corruption."""
        with TRACER.span("cache.get", namespace=self.namespace) as span:
            value = self._get(key_obj)
            if span is not None:
                span.attrs["outcome"] = "miss" if value is None else "hit"
            return value

    def _get(self, key_obj):
        path = self.path_for(key_obj)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted or unreadable entry: drop it and re-simulate.
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return value

    def put(self, key_obj, value) -> bool:
        """Atomically store ``value``; returns False on any I/O failure."""
        with TRACER.span("cache.put", namespace=self.namespace):
            return self._put(key_obj, value)

    def _put(self, key_obj, value) -> bool:
        path = self.path_for(key_obj)
        self._sweep()
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
            tmp_name = None
        except Exception:
            self.errors += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False
        self.writes += 1
        return True

    def _sweep(self) -> None:
        """Remove this namespace's other directories, once per process.
        What a concurrent sweep removes first, or what cannot be removed,
        is skipped."""
        key = os.path.abspath(self.directory)
        if key in _SWEPT:
            return
        _SWEPT.add(key)
        try:
            entries = list(os.scandir(self.directory.parent))
        except OSError:
            return
        for entry in entries:
            if (entry.name != self.directory.name
                    and entry.is_dir(follow_symlinks=False)):
                shutil.rmtree(entry.path, ignore_errors=True)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "writes": self.writes,
        }


# ---------------------------------------------------------------------------
# Process-wide shared caches (the runner uses these).
# ---------------------------------------------------------------------------
_state: dict = {"enabled": None, "root": None, "caches": {}}


def configure(enabled: bool | None = None, root: str | None = None) -> None:
    """Override the process-wide cache policy (``None`` leaves env defaults)."""
    _state["enabled"] = enabled
    _state["root"] = root
    _state["caches"] = {}


def configured_root() -> str | None:
    """The explicitly configured root, if any (workers re-apply it)."""
    return _state["root"]


def is_enabled() -> bool:
    if _state["enabled"] is not None:
        return _state["enabled"]
    return os.environ.get(ENV_DISK_CACHE, "1").lower() not in _FALSE_VALUES


def shared_cache(namespace: str) -> DiskCache | None:
    """The process-wide cache for a namespace, or ``None`` when disabled."""
    if not is_enabled():
        return None
    cache = _state["caches"].get(namespace)
    if cache is None:
        cache = DiskCache(root=_state["root"], namespace=namespace)
        _state["caches"][namespace] = cache
    return cache


def shared_stats() -> dict[str, dict[str, int]]:
    """Per-namespace hit/miss counters of the process-wide caches."""
    return {
        name: cache.stats() for name, cache in _state["caches"].items()
    }


def merge_stats(stats: dict[str, dict[str, int]]) -> None:
    """Fold a worker process's cache counters into this process's caches."""
    for namespace, counters in stats.items():
        cache = shared_cache(namespace)
        if cache is None:
            continue
        cache.hits += counters.get("hits", 0)
        cache.misses += counters.get("misses", 0)
        cache.errors += counters.get("errors", 0)
        cache.writes += counters.get("writes", 0)
