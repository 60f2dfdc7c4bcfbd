"""Reference-speed clock: elapsed seconds at a fixed interpreter speed.

On the shared 2-vCPU VM the benchmark was tuned on, each vCPU's speed
jumps between two levels about 1.6x apart every few seconds,
independently of the other vCPU and of the load on it, and a 30 s run
can sit mostly on either level.  Wall time then measures the host as much as the program:
ten runs' medians spread by up to 31%.

A :class:`RefClock` measures the speed of the CPU its process runs on
every ``PERIOD`` seconds by timing a short fixed probe loop from a
``SIGALRM`` handler, so the probe runs on the thread doing the work,
between two of its bytecodes.  Between samples the clock advances by
the wall time elapsed times ``REFERENCE_PROBE_S`` over the last probe
time: the seconds the same work would have taken at the reference
speed.  The probe's own time does not advance it.  Timed this way, one
cold Figure 8 pass spreads by 2% over a minute where its wall time
spreads by 15%.

The clock keeps ``(monotonic time, reference time, speed)`` points in
an anonymous shared mapping.  A process forked inside :func:`next_fork`
samples its own CPU into that mapping, and the parent reads the child's
clock at any past instant with :meth:`RefClock.at`.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
from bisect import bisect_right
from contextlib import contextmanager

#: Seconds between two speed samples.
PERIOD = 0.02
#: Probe iterations: about 0.25 ms at the reference speed.
PROBE_ITERATIONS = 2000
#: The probe's time at the reference speed: the faster of the two levels
#: of the 2.1 GHz Xeon VM the benchmark was tuned on.
REFERENCE_PROBE_S = 250e-6
#: Points the mapping holds; two per sample, so 20 ms samples fill it in
#: eleven minutes.  The clock then runs on at the last speed it saw.
CAPACITY = 1 << 16


def probe(iterations: int = PROBE_ITERATIONS) -> int:
    """The fixed loop whose time measures the CPU's speed.

    Of the loops tried, this dictionary-and-integer loop slowed down most
    nearly as the simulator does on the slow level; object, list and
    memory-bound loops tracked it worse.  It still slows somewhat more,
    so a run spent mostly on the slow level reads up to about 7% low.
    """
    table: dict[int, int] = {}
    total = 0
    for index in range(iterations):
        key = index & 255
        table[key] = table.get(key, 0) + index
        total += (key * 3) >> 1
    return total


def probe_seconds() -> float:
    """Seconds of one probe, after one untimed probe warms the caches."""
    probe()
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class RefClock:
    """Seconds of work at the reference speed, sampled by ``SIGALRM``."""

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, 8 * (1 + 3 * CAPACITY))
        # cells[0] counts the points; point i is (time, ref, speed) at
        # cells[1 + 3i:4 + 3i].  A point is written before it is counted,
        # so a reader in another process never sees half of one.
        self.cells = memoryview(self._map).cast("d")
        self._previous = None

    @property
    def points(self) -> int:
        return int(self.cells[0])

    def record(self, moment: float, ref: float, speed: float) -> None:
        cells, count = self.cells, self.points
        if count >= CAPACITY:
            return
        cells[1 + 3 * count] = moment
        cells[2 + 3 * count] = ref
        cells[3 + 3 * count] = speed
        cells[0] = count + 1

    def at(self, moment: float) -> float:
        """Reference seconds at monotonic time ``moment`` since the clock
        started."""
        cells, count = self.cells, self.points
        if not count:
            raise RuntimeError("the reference clock has not started")
        index = max(0, bisect_right(cells[1:1 + 3 * count:3], moment) - 1)
        base = 1 + 3 * index
        return cells[base + 1] + (moment - cells[base]) * cells[base + 2]

    def now(self) -> float:
        return self.at(time.monotonic())

    def speeds(self) -> list[float]:
        """Every sampled speed, as a share of the reference speed."""
        return [speed for speed in self.cells[3:1 + 3 * self.points:3]
                if speed]

    def _sample(self, *_) -> None:
        start = time.monotonic()
        ref = self.at(start) if self.points else 0.0
        self.record(start, ref, 0.0)  # the probe's time does not count
        speed = REFERENCE_PROBE_S / probe_seconds()
        self.record(time.monotonic(), ref, speed)

    # ------------------------------------------------------------------
    def start(self) -> "RefClock":
        """Sample this process's CPU every ``PERIOD`` seconds from now."""
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def close(self) -> None:
        self.cells.release()
        self._map.close()


#: ``(cpus, clock)`` for the processes forked inside :func:`next_fork`.
#: Module state because fork hooks are process-wide and cannot be
#: removed: one hook, registered once, reads what the open block set.
_ARMED: tuple[set[int] | None, RefClock | None] | None = None
_HOOKED = False


@contextmanager
def next_fork(cpus: set[int] | None = None, clock: RefClock | None = None):
    """A process forked inside the block runs only on ``cpus``, and the
    first one samples its CPU into ``clock`` until it exits; each only
    when given."""
    global _ARMED, _HOOKED
    if not _HOOKED:
        os.register_at_fork(after_in_child=_in_child)
        _HOOKED = True
    _ARMED = cpus, clock
    try:
        yield
    finally:
        _ARMED = None


def _in_child() -> None:
    if _ARMED is None:
        return
    cpus, clock = _ARMED
    if cpus:
        os.sched_setaffinity(0, cpus)
    if clock is not None and not clock.points:
        clock.start()
