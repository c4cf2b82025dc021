"""Host-speed probe.

On a host whose cores are shared with other tenants, the same interpreter
loop can run 1.7 times slower for stretches of one to thirty seconds (seen
on a 2-core Xeon virtual machine), so raw seconds from runs minutes apart
disagree by 15 to 50 %.  While a pass runs, a SIGALRM handler times a fixed
piece of reference work every PERIOD_S seconds; no thread is started.  A
job's seconds divided by the mean reference time around it is its cost in
reference units (``ref``), which cancels most of the host's speed changes.
The probe's own time is subtracted from the job.

The reference work has two halves: tuple, list and dict work that stays in
the first-level cache and slows when another tenant shares the core, and
reads of an 8 MiB table at pseudo-random positions that slow when another
tenant competes for the caches.  Dehn reduction follows the first kind and
coset enumeration the second; the sum tracks both within about 5 % per pass.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

PERIOD_S = 0.04
WINDOW_S = 0.2
_TABLE_BITS = 21


class SpeedProbe:
    """Samples the reference work while entered as a context manager."""

    def __init__(self):
        self.ends: list[float] = []     # perf_counter() at the end of each sample
        self.costs: list[float] = []    # seconds each sample took
        self._table = array("I", [0]) * (1 << _TABLE_BITS)

    def reference_work(self) -> int:
        acc: list[tuple[int, int]] = []
        counts: dict[tuple[int, int], int] = {}
        s = 0
        for i in range(800):
            t = (i & 15, 1 if i & 2 else -1)
            if acc and acc[-1][0] == t[0] and acc[-1][1] == -t[1]:
                acc.pop()
            else:
                acc.append(t)
            counts[t] = counts.get(t, 0) + i
        # a full-period linear congruential walk over the table
        table, mask = self._table, (1 << _TABLE_BITS) - 1
        j = 0
        for _ in range(1500):
            j = (j * 1103515245 + 12345) & mask
            s += table[j]
        return s + len(acc)

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.reference_work()
        t1 = perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds the probe itself took between start and end."""
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.costs[lo:hi])

    def unit(self, start: float, end: float) -> float:
        """Mean reference time over [start - WINDOW_S, end].

        The host alternates between a fast and a slow state, so the mean,
        not the median, follows the share of the job spent in each; samples
        over three times the fastest one (the probe itself descheduled) are
        left out."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end)
        window = self.costs[lo:hi] or self.costs[-1:]
        cap = 3 * min(window)
        return statistics.mean(c for c in window if c <= cap)
