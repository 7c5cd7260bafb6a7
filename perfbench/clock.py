"""Per-check timing, and the machine-speed probe that runs between checks.

The machine this benchmark was built on runs the same pure-Python code
up to 1.8x faster or slower from one half-second to the next, on both
cores at once (README, "Machine drift").  Raw wall times of two runs of
identical code therefore differ by more than any useful bound.  So the
benchmark times a fixed probe — a short loop of integer arithmetic and
dict updates that touches no checker code — every :data:`PROBE_EVERY_S`
seconds between checks, and divides each check's time by the machine's
slowdown around it: the mean probe duration within :data:`WINDOW_S` of
the check, over :data:`PROBE_REF_S`.  A scaled time reads as the time
the check would take on a machine that runs the probe in exactly
``PROBE_REF_S``.  The probe never changes with the checker, so a
faster or slower checker moves the scaled figures as much as the raw
ones.  The probe runs with the garbage collector off, so the checker's
heap cannot slow it down.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
from time import perf_counter
from typing import List, Tuple

#: seconds between two probes (checks are never interrupted).
PROBE_EVERY_S = 0.1
#: probes within this many seconds of a check set its slowdown.
WINDOW_S = 0.25
#: mean probe duration of this machine at its usual speed; it only sets
#: the scale of the reported figures, since bounds compare ratios.
PROBE_REF_S = 0.0026
PROBE_ITERATIONS = 8000


def probe() -> float:
    """One probe; returns its duration in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        d = {}
        acc = 0
        for i in range(PROBE_ITERATIONS):
            k = i * 2654435761 % 1000003
            d[k] = d.get(k, 0) + (i & 7)
            acc ^= (k * 31) & 0xFFFF
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times checks (``start``/``done`` around each, or ``done`` alone
    from a result callback) and probes the machine between them.  Probe
    time is excluded from check times and from :attr:`probe_s`."""

    def __init__(self) -> None:
        #: (time, duration) of each probe.
        self.probes: List[Tuple[float, float]] = []
        #: (start, end) of each check, in the order timed.
        self.spans: List[Tuple[float, float]] = []
        #: (start, end) of engine work after a round's last check.
        self.tails: List[Tuple[float, float]] = []
        self.probe_s = 0.0
        self._last_probe = float("-inf")
        self._mark = perf_counter()

    def _probe(self) -> None:
        t0 = perf_counter()
        self.probes.append((t0, probe()))
        self._last_probe = perf_counter()
        self.probe_s += self._last_probe - t0

    def start(self) -> None:
        if perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self._probe()
        self._mark = perf_counter()

    def done(self, times: List[float]) -> None:
        """A check just finished: record its raw time into ``times``."""
        now = perf_counter()
        times.append(now - self._mark)
        self.spans.append((self._mark, now))
        self.start()

    def finish(self) -> None:
        """The engine call that reported the checks returned: its work
        since the last check counts as timed work, but as no check."""
        self.tails.append((self._mark, perf_counter()))

    def slowdown(self) -> float:
        """Mean probe duration over the reference: above 1 means the
        machine ran slower than usual."""
        return statistics.fmean(d for _, d in self.probes) / PROBE_REF_S

    def scaled(self) -> List[float]:
        """Each timed check's duration divided by the slowdown around it
        (the probes within ``WINDOW_S``, else the nearest one)."""
        return self._scale(self.spans)

    def scaled_busy(self) -> float:
        """Scaled seconds of all timed work: the checks plus the engine
        work after each round's last check."""
        return math.fsum(self._scale(self.spans + self.tails))

    def _scale(self, spans: List[Tuple[float, float]]) -> List[float]:
        times = [t for t, _ in self.probes]
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            if lo == hi:  # no probe in the window: the neighbours
                lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
            near = [d for _, d in self.probes[lo:hi]]
            out.append((end - start) * PROBE_REF_S / statistics.fmean(near))
        return out
