"""Machine-speed reference that the benchmark's timings are scaled by.

The host's speed for the same Python code drifts by up to ~1.7x, from
one fraction of a second to the next as well as over minutes, so raw
wall times of the same work disagree between runs by more than any
useful bound.  The benchmark therefore keeps timing a small fixed piece
of reference work (pure Python dict and tuple traffic, the kind of work
the program's engines do, and nothing of the program) while it runs:

* during a timed call, every :data:`INTERVAL_S` of wall time, from a
  ``SIGALRM`` handler; the handler's own time is taken out of the call;
* between calls, :data:`BOUNDARY_SAMPLES` times in a row.

Each call's time is scaled to a machine on which one reference sample
takes :data:`REFERENCE_S`, by the samples taken from the boundary before
the call to the boundary after it:

    scaled = (raw - handler time) * REFERENCE_S * samples / their seconds

A slower program still reads slower; a slower host does not.  Runs keep
the raw times in their ``notes`` line.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List, Optional

#: Seconds one reference sample is scaled to (about its median on a
#: two-core Xeon VM under Python 3.11, so scaled times read like that
#: machine's wall times).
REFERENCE_S = 0.0003
#: Wall seconds between samples taken during a timed call.
INTERVAL_S = 0.02
#: Samples taken back to back between two timed calls.
BOUNDARY_SAMPLES = 8

_KEYS = 1000
#: Built once, so the reference work allocates nothing that outlives it
#: and never sets off a collection of the program's heap.
_TABLE = {(i & 511, i >> 5): i for i in range(0, 2 * _KEYS, 2)}

clock = time.perf_counter


def _reference_work() -> int:
    table = _TABLE
    total = 0
    for i in range(_KEYS):
        total += table.get((i & 511, i >> 5), i) ^ (i * 7 % 13)
    return total


class SpeedMeter:
    """Reference samples in time order, and the handler time spent."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall seconds spent in the timer handler so far.
        self.spent = 0.0
        self._previous: Optional[object] = None

    def _take(self) -> None:
        spent = self.spent
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            _reference_work()
            elapsed = clock() - start
        finally:
            if collecting:
                gc.enable()
        # A handler run nested inside this sample is not part of it.
        self.samples.append(elapsed - (self.spent - spent))

    def _on_alarm(self, signum: int, frame: object) -> None:
        start = clock()
        self._take()
        self.spent += clock() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def boundary(self) -> int:
        """Take the between-calls samples; returns where they start."""
        first = len(self.samples)
        for _ in range(BOUNDARY_SAMPLES):
            self._take()
        return first

    def scale(self, first: int) -> float:
        """Raw seconds -> reference seconds, from sample ``first`` on."""
        window = self.samples[first:]
        return REFERENCE_S * len(window) / sum(window)
