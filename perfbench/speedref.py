"""A speed reference: a fixed pure-Python snippet timed all through each pass.

On a shared virtual machine the interpreter's speed drifts by up to a fifth
over seconds to minutes, as other tenants load the host; the same pass of a
workload then takes 0.8 to 1.2 times its usual wall time, and the drift is
as fast as one pass. While a pass runs, a ``Sampler`` times the snippet
every ``INTERVAL`` seconds from a SIGALRM handler in the worker's only
thread. The pass's cost relative to the reference, ``wall_rel``, is its wall
time less the snippet's own time, divided by the snippet's median time over
the pass, which cancels most of that drift. The snippet does the kind of
work the workloads do (function calls, attribute reads on small objects,
integer arithmetic) with the standard library only, so no change to
tqecsynth can move it.
"""
from __future__ import annotations

import random
import signal
import statistics
import time

POINTS = 64
INTERVAL = 0.1


class _Point:
    __slots__ = ("i", "j", "t")

    def __init__(self, i: int, j: int, t: int):
        self.i, self.j, self.t = i, j, t


_rng = random.Random(20160428)
_POINTS = [_Point(_rng.randrange(64), _rng.randrange(64), _rng.randrange(64))
           for _ in range(POINTS)]


def _gap(a: _Point, b: _Point) -> int:
    return max(abs(a.i - b.i), abs(a.j - b.j), abs(a.t - b.t))


def snippet() -> int:
    """The reference work, about 3 ms on a 2 GHz Xeon.

    It creates no objects beyond its loop iterators, so its speed does not
    depend on the state of the heap the workload leaves behind.
    """
    acc = 0
    for x, a in enumerate(_POINTS):
        for y in range(x + 1, POINTS):
            b = _POINTS[y]
            g = _gap(a, b)
            c = _POINTS[y - 1]
            h = _gap(a, c)
            acc ^= g if g < h else h
    return acc


class Sampler:
    """Times the snippet on entry, every INTERVAL seconds, and on exit."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def relative(self, wall_s: float) -> float:
        """``wall_s`` (timed inside this sampler) less the snippet's time, in snippets.

        The median sample is the gauge: a tick that lands on a page-fault
        storm or a writeback inflates one sample, not the pass.
        """
        inside = sum(self.samples[1:-1])
        return (wall_s - inside) / statistics.median(self.samples)
