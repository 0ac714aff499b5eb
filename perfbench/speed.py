"""CPU-speed sampling, to take the host's speed swings out of timings.

The benchmark runs on a shared machine whose CPUs change speed by up to 2x
within seconds, as neighbours come and go.  While ``Sampler`` is active, a
SIGALRM every ``PERIOD_S`` runs ``reference``, a fixed piece of pure-Python
work of the same kind as the library's (small table look-ups, tuples, dicts
and sets), and records how long it took.  ``Sampler.scale`` then turns the
wall time of an interval into *reference seconds*: the time the interval
would have taken had the CPU run at the speed at which ``reference`` takes
``REFERENCE_S``.  Because the scale is the time average of
``REFERENCE_S / sample``, an interval at a steady speed keeps its wall time
when ``reference`` takes ``REFERENCE_S``, and a stretch at half speed counts
half.

The samples' own time is added to ``busy``, so that the caller can take it
out of what it measured.  Work whose speed the samples do not share is not
corrected: a program that made its own CPU slower, say by running helper
processes beside itself, would have that slowdown scaled away.
"""

import signal
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

PERIOD_S = 0.01
# ``reference`` takes about this long on a quiet core of the Xeon the
# baseline in DESIGN.md was taken on, so reference seconds read close to
# quiet wall seconds there.
REFERENCE_S = 80e-6
# An interval shorter than this is scaled by the samples within a window of
# this width around its midpoint.
WINDOW_S = 1.0

_SIGMA = ((1, 0, 3, 2), (0, 1, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1))
_TAU = ((2, 3, 0, 1), (3, 2, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))


def _compose(a, b):
    return tuple(a[i] for i in b)


def reference():
    """Fixed work: a braid-style check and a few dict and set operations."""
    total = 0
    for _ in range(2):
        seen = {}
        for x in range(4):
            for y in range(4):
                a, b = _SIGMA[x][y], _TAU[x][y]
                seen[a, b] = seen.get((a, b), 0) + 1
                for z in range(4):
                    total += _SIGMA[a][_SIGMA[b][z]] == _SIGMA[x][_SIGMA[y][z]]
        perms = {_compose(_SIGMA[x], _TAU[y]) for x in range(4) for y in range(4)}
        total += len(seen) + len(perms)
    return total


class Sampler:
    """Context manager that samples the CPU speed while it is active."""

    def __init__(self):
        self.at = array("d")     # end of each sample
        self.speed = array("d")  # REFERENCE_S / sample time
        self.busy = 0.0          # total time spent sampling
        self._prefix = None
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.at.append(t1)
        self.speed.append(REFERENCE_S / (t1 - t0))
        self.busy += t1 - t0
        self._prefix = None

    def __enter__(self):
        for _ in range(3):
            reference()  # let the interpreter specialize it first
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()  # so that every interval has a sample near it
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start, end):
        """Mean speed over the samples in [start, end], widened to WINDOW_S
        around its midpoint; the next sample, or the last, if none falls
        inside."""
        if self._prefix is None:
            self._prefix = [0.0, *accumulate(self.speed)]
        mid = (start + end) / 2
        i = bisect_left(self.at, min(start, mid - WINDOW_S / 2))
        j = bisect_right(self.at, max(end, mid + WINDOW_S / 2))
        if i == j:
            i, j = (i - 1, i) if i == len(self.at) else (i, i + 1)
        return (self._prefix[j] - self._prefix[i]) / (j - i)
