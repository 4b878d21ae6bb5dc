"""Machine-speed reference for the end-to-end timings.

On a shared VM the whole machine slows by up to 2x for seconds to minutes
at a time, and a pure-Python loop slows with the engine.  A run therefore
times `reference()` between the items it measures, and `Timeline`
scales each timing by REF_S over the median reference time just before
and just after it.  A set-up probe runs in a process of its own, which
may sit on another CPU, so it times the reference itself, after its
set-up, and is scaled by that.  The reference never calls the engine, so
a change to the engine scales the timings by the same factor, scaled or
not.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Optional

# About the median time of reference() on a quiet 2-vCPU Xeon VM with
# Python 3.11.7.  Scaled timings are the times the run would have taken
# at that speed.
REF_S = 0.006


def reference() -> int:
    """Fixed work shaped like the DP's: a dict keyed by int tuples
    accumulating Python ints, then a weighted sum over it."""
    table: dict[tuple[int, int], int] = {}
    for i in range(20000):
        key = (i % 517, i % 23)
        table[key] = table.get(key, 0) + i
    total = 0
    for (a, _), v in table.items():
        total += v * a
    return total


def reference_time(repeat: int = 3) -> float:
    """Median wall time of `repeat` calls of reference()."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Timeline:
    """Timings in the order taken, between points where the reference was
    timed.  A timing is scaled by the reference times at the points just
    before and just after it."""

    def __init__(self) -> None:
        self.points: list[list[float]] = []
        # name -> (index of the point before, seconds, own reference or None)
        self.samples: dict[str, list[tuple]] = {}

    def reference(self, repeat: int = 3) -> None:
        """Time reference() `repeat` times: a new point."""
        self.points.append([reference_time(1) for _ in range(repeat)])

    def add(self, name: str, seconds: float,
            ref: Optional[float] = None) -> None:
        """Record a timing taken since the last point.  `ref` is a
        reference time taken where the timing was (in a child process,
        say), used in place of the points around it."""
        self.samples.setdefault(name, []).append(
            (len(self.points) - 1, seconds, ref))

    def raw(self, name: str) -> list[float]:
        return [dt for _, dt, _ in self.samples.get(name, [])]

    def scaled(self, name: str) -> list[float]:
        out = []
        for p, dt, ref in self.samples.get(name, []):
            if ref is None:
                near = [t for q in (p, p + 1) if 0 <= q < len(self.points)
                        for t in self.points[q]]
                ref = statistics.median(near) if near else REF_S
            out.append(dt * REF_S / ref)
        return out

    def speed(self) -> float:
        """Median reference time over the run, in seconds."""
        return statistics.median(t for q in self.points for t in q)
