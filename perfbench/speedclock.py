"""A clock in reference seconds, steady against the host's speed changes.

On a shared host the speed of one core can move by a third within
seconds, as neighbours come and go; raw wall times of the same work then
spread by more than any useful regression bound.  This clock samples the
speed instead: every PERIOD_S a timer signal runs a fixed pure-Python probe
(rational and dict arithmetic, the same kind of work as spinorsheaf's)
and times it.  Each interval between probes advances the clock by its
wall duration times PROBE_REF_S / (probe duration), the mean of the
factors at both ends.  A second on this clock is the time the same work
takes on a host where the probe takes PROBE_REF_S.  The probes' own time
is left out.

One clock runs at a time, in the main thread (signal handlers run there).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_REF_S = 0.0004


def _probe():
    acc = {}
    x = Fraction(1, 3)
    for i in range(100):
        acc[i % 31] = acc.get(i % 31, 0) + i * i
        x = x * Fraction(3, 2) if i % 7 else Fraction(1, 3)
    return x


class SpeedClock:
    def __init__(self):
        # (reference seconds so far, wall time they run to, current factor);
        # replaced as one tuple so a reader never sees half an update.
        self.state = (0.0, time.perf_counter(), 1.0)
        self.probes = []
        self._previous_handler = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        norm, last, factor = self.state
        new_factor = PROBE_REF_S / (t1 - t0)
        self.probes.append(t1 - t0)
        self.state = (norm + (t0 - last) * (factor + new_factor) / 2,
                      time.perf_counter(), new_factor)

    def now(self):
        norm, last, factor = self.state
        return norm + (time.perf_counter() - last) * factor

    def start(self):
        """Take one probe for the starting factor, then sample every
        PERIOD_S until stop()."""
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.state = (0.0, time.perf_counter(), PROBE_REF_S / (t1 - t0))
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False
