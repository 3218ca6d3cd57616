"""Correction of measured latencies for the speed of a shared host.

On a virtual machine whose cores are shared with other tenants, the same
Python code runs anywhere from 1.0x to 1.8x its best time, changing from one
tenth of a second to the next and drifting over minutes.  Medians over
passes cannot remove a drift that lasts a whole run, so each latency is
corrected by the host's speed while it was measured: a timer runs a fixed
probe every INTERVAL_S, and an item's latency is scaled by PROBE_REF_S over
the mean probe time around the item.

The probe mixes the kinds of work germlab does (integer loops, Fraction
arithmetic, dicts keyed by exponent tuples), because contention slows them
by different amounts.  It runs with the garbage collector off and frees all
it allocates, so it neither triggers nor shifts a collection of germlab's
objects, and it touches nothing of germlab: a change to germlab cannot
change the correction.  Sampling adds 2-3% to every item, the same on
every commit.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
_FRACTIONS = tuple(Fraction(i, 7) for i in range(1, 21))
# The probe's time on an unloaded 2.0 GHz Xeon vCPU (Python 3.11.7): the
# corrected numbers are seconds on such a core.
PROBE_REF_S = 3.7e-4


def _work():
    x = 0
    for i in range(2000):
        x += i * i % 7
    acc = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[3:6]:
            acc += a * b
    table: dict = {}
    for i in range(300):
        key = (i % 5, i % 3, i % 2)
        table[key] = table.get(key, 0) + i


class HostSpeed:
    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self, *_signal_args):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe time from the last sample before
        `start` to the first sample after `end`."""
        lo = max(0, bisect.bisect_left(self.ends, start) - 1)
        hi = min(len(self.ends), bisect.bisect_right(self.ends, end) + 1)
        around = self.durations[lo:hi]
        return PROBE_REF_S * len(around) / sum(around)
