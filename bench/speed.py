"""
The speed of the machine at the moment, read from a fixed pure-Python loop,
and timings rescaled to a reference speed.

The benchmark runs on virtual machines that share their cores: a fixed
pure-Python loop takes from 0.25 s to 0.4 s from one second to the next, in
phases of seconds to minutes, and adlv's pure-Python hot paths slow down
with it.  So
every timed stretch (STRETCH_S of a pass or of a command, or one set-up
sample) is bracketed by two probes of the loop, whose own time is left out,
and its wall time is rescaled by the ratio of the loop's reference time to
the mean of the two probes:

    at_reference(wall, before, after) = wall * REFERENCE_S / ((before + after) / 2)

That is the time the stretch would have taken while the loop runs in
REFERENCE_S, about its median on the machine of the reference figures in
README.md.  A change to adlv moves it as it moves wall time; a slow phase of
the machine moves the stretch and the probes alike and cancels.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.005     # one probe's loop at reference speed
LOOP = 6_000            # iterations of the probe's loop
TRIES = 3               # a probe is the fastest of this many loops
STRETCH_S = 0.2         # wall time between two probes inside a timed region


def _step(a: int, b: int) -> int:
    return (a + b) % 9973


def _loop() -> float:
    """Small-tuple keys, dict updates, calls and short sorts: the kind of
    work adlv's pure-Python paths do (a bare arithmetic loop tracked adlv's
    slow phases less closely)."""
    t0 = time.perf_counter()
    table: dict = {}
    keys = []
    for i in range(LOOP):
        key = (i % 97, i % 89, i % 7)
        table[key] = table.get(key, 0) + _step(i, key[0])
        keys.append(tuple(sorted(key)))
    len(set(keys))
    return time.perf_counter() - t0


def probe() -> float:
    """Time of the loop now: the fastest of a few back-to-back tries, so a
    single preemption does not count as a slow machine."""
    return min(_loop() for _ in range(TRIES))


def at_reference(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S * 2.0 / (before + after)


class Timer:
    """
    Times one region of code, as wall time and at reference speed.

    A probe is taken when the region starts, every STRETCH_S of wall time
    inside it and when it ends; each stretch between two probes is rescaled
    by their mean.  The probes inside the region run from a SIGALRM handler,
    so that one long operation (a whole adlv command) is split into
    stretches too.  The time spent in probes is left out of both figures,
    and clock() is perf_counter with that time left out, for spans.  The
    handler stays installed after the region and does nothing there.

        timer = Timer()
        with timer:
            ...
        timer.wall_s, timer.scaled_s
    """

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._probe_s = 0.0
        self._running = False
        self._before = self._start = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._probe_s

    def __enter__(self) -> "Timer":
        signal.signal(signal.SIGALRM, self._tick)
        self._before = self._probe()
        self._running = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, STRETCH_S)
        return self

    def __exit__(self, *exc) -> bool:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._end_stretch()
        return False

    def _tick(self, signum, frame) -> None:
        if self._running:
            self._end_stretch()
            signal.setitimer(signal.ITIMER_REAL, STRETCH_S)

    def _probe(self) -> float:
        t0 = time.perf_counter()
        speed = probe()
        self._probe_s += time.perf_counter() - t0
        return speed

    def _end_stretch(self) -> None:
        stretch = time.perf_counter() - self._start
        after = self._probe()
        self.wall_s += stretch
        self.scaled_s += at_reference(stretch, self._before, after)
        self._before = after
        self._start = time.perf_counter()
