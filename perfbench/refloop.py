"""The reference loop: a fixed piece of pure-Python work that measures how
fast the machine runs the program's kind of code at the moment.

On a shared machine the speed of one CPU drifts from one second to the
next: a fixed pure-Python loop took 0.16 s to 0.25 s on the baseline
machine within one minute, in process CPU time as much as in wall time.
The benchmark runs this loop before and after every call it times, and
scales the call's time by REFERENCE_NS over the loop's mean time around
it. That gives the time the call would have taken at the speed where the
loop takes REFERENCE_NS. A change to the program moves the call's time
and not the loop's, so it shows in full.

The loop does what the program does most: exact rational arithmetic with
`fractions.Fraction` and updates of a dict keyed by tuples.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the loop's median time on the baseline machine (2 virtual CPUs, Intel
# Xeon at 2.0 GHz, Python 3.11.7)
REFERENCE_NS = 2_300_000


def loop_ns() -> int:
    """Run the reference loop once; returns its time in nanoseconds."""
    t0 = time.perf_counter_ns()
    counts = {}
    a = Fraction(3, 7)
    for i in range(300):
        b = Fraction(i + 1, 3 * i + 2)
        a = a * b + b
        a = Fraction(a.numerator % 1000003, a.denominator % 1000003 or 1)
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter_ns() - t0


def scaled(ns: int, before: int, after: int) -> float:
    """`ns` at the reference speed, given the loop's time before and after."""
    return ns * 2 * REFERENCE_NS / (before + after)
