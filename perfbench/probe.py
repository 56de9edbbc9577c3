"""Probe-normalised time for a shared, speed-switching CPU.

All instants are read from the thread's CPU clock (``now``), which leaves
out the time the hypervisor runs another guest on this vCPU.  A fixed
pure-Python loop (``probe``) runs on the main thread every
``PROBE_INTERVAL_S`` seconds of CPU time, driven by SIGPROF, so it also
fires inside long calls into the program under test.  Every stretch of
program time between two probes is rescaled by ``(REF_PROBE_S / probe
time measured next to it) ** EXPONENT``, and the probe's own time is cut
out of every interval.  The result is in reference seconds ("ref-s"): the time the work
would take on a CPU on which the probe takes exactly ``REF_PROBE_S``.

``probe`` (with ``PROBE_LOOPS``), ``REF_PROBE_S`` and ``EXPONENT`` are
frozen: changing any of them rescales every number the benchmark has ever
reported.  The tests pin them.

This module imports nothing from ``invdom``.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right

now = time.thread_time

PROBE_LOOPS = 2_000
REF_PROBE_S = 0.0005
# The CPU's speed changes within a tenth of a second, so the probe runs
# often and each stretch is rescaled by its two neighbours only (README).
PROBE_INTERVAL_S = 0.02
WINDOW = 1  # probes on either side of a stretch whose median rescales it
# The program slows a little more than the probe: over 150 s of three kinds
# of work, chunk time grew as probe time to the power 1.12-1.14 (README).
EXPONENT = 1.13


def probe() -> int:
    """Fixed pure-Python work: integer, list and dict operations."""
    acc = 0
    table = {}
    row = [0] * 64
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        row[i & 63] ^= acc
        if not i & 7:
            table[acc & 1023] = i
    return acc + len(table) + (row[5] & 1)


class Timeline:
    """Maps raw instants of ``now`` to normalised seconds.

    ``probes`` holds (start, end) pairs in raw seconds, in time order.
    ``at(t)`` is piecewise linear: flat inside a probe, slope
    ``(REF_PROBE_S / local probe time) ** EXPONENT`` between probes.  Only
    differences of ``at`` mean anything; ``span(a, b)`` is the normalised
    length of [a, b].
    """

    def __init__(
        self,
        probes: list[tuple[float, float]],
        ref: float = REF_PROBE_S,
        exponent: float = EXPONENT,
    ):
        if not probes:
            raise ValueError("no probe ran: the interval is too short to normalise")
        self.probes = probes
        durations = [end - start for start, end in probes]
        count = len(probes)
        # stretch k lies before probe k (k == count: after the last probe)
        self.factors = []
        for k in range(count + 1):
            lo = max(0, k - WINDOW)
            hi = min(count, k + WINDOW)
            self.factors.append((ref / statistics.median(durations[lo:hi])) ** exponent)
        self.points = []  # s_0, e_0, s_1, e_1, ...
        self.values = []  # normalised time at each point
        acc = 0.0
        prev_end = None
        for k, (start, end) in enumerate(probes):
            if prev_end is not None:
                acc += self.factors[k] * (start - prev_end)
            self.points += [start, end]
            self.values += [acc, acc]
            prev_end = end

    def at(self, t: float) -> float:
        j = bisect_right(self.points, t)
        if j == 0:
            return self.values[0] - self.factors[0] * (self.points[0] - t)
        if j % 2:  # inside probe (j - 1) // 2
            return self.values[j - 1]
        return self.values[j - 1] + self.factors[j // 2] * (t - self.points[j - 1])

    def span(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)

    def durations(self) -> list[float]:
        return [end - start for start, end in self.probes]


class ProbeClock:
    """Runs ``probe`` from a CPU-time interval timer and logs its timings."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.probes: list[tuple[float, float]] = []
        self._busy = False
        self._old_handler = None

    def _fire(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = now()
            probe()
            self.probes.append((start, now()))
        finally:
            self._busy = False

    def __enter__(self) -> "ProbeClock":
        self._old_handler = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def timeline(self) -> Timeline:
        return Timeline(list(self.probes))
