"""The host's pace: a fixed pure-Python loop timed beside the operations.

The shared host the benchmark runs on speeds up and slows down by up to
1.8x in phases of seconds to minutes, and the phases slow the interpreter
as a whole, CPU time as much as wall time.  ``reference_loop`` is a fixed
piece of interpreter work (integer arithmetic, dict updates, calls and
exact fractions, as the engine does, and a sort) that never touches
``corec``; its time at a moment is the host's pace then.  An operation's
latency times ``REF_S`` / (the loop's time around the operation) is its
latency at the reference pace, where the loop takes ``REF_S``: the host's
phases cancel, while a change to the engine moves it as much as it moves
the raw time.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# The loop's time at the reference pace (about its time in the fast phases
# of the host the benchmark was written on).
REF_S = 0.001
EVERY_S = 0.02  # time the loop again once this long has passed
BURST = 5  # the most timings in a row, after a long operation
WINDOW_S = 0.5  # an operation's pace: loop times within this of it

_THIRD = Fraction(1, 3)
# a fixed shuffle of 1..8008 (multiplication by a unit modulo 8009)
_SHUFFLED = [i * 1777 % 8009 for i in range(1, 8009)]


def _step(k, acc):
    return acc + (k * 7) % 13


def reference_loop():
    """Bytecode-bound work (arithmetic, dict updates, calls, fractions),
    which a slow phase slows most, and a sort of a shuffled list, bound by
    branch misses and memory reads, which it slows less: the engine's
    operations lie between the two."""
    table = {}
    acc = 0
    for i in range(1500):
        k = i & 63
        table[k] = table.get(k, 0) + i
        acc = _step(k, acc)
    frac = Fraction(0)
    for i in range(45):
        frac += _THIRD * (i % 5)
    return acc, frac, sorted(_SHUFFLED)[0]


def time_loop():
    """One timing of the reference loop, with the collector held off so
    the size of the heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Loop timings taken through a run: after each stretch of
    ``EVERY_S`` without one, one timing per ``EVERY_S`` passed, at most
    ``BURST``, so the pace around a long operation is a median too."""

    def __init__(self):
        self.at = []
        self.took = []

    def tick(self):
        now = perf_counter()
        if self.at and now - self.at[-1] < EVERY_S:
            return
        due = int((now - self.at[-1]) / EVERY_S) if self.at else BURST
        for _ in range(min(due, BURST)):
            self.took.append(time_loop())
            self.at.append(now)

    def factor(self, start, end):
        """``REF_S`` / the median loop time from ``WINDOW_S`` before
        ``start`` to ``WINDOW_S`` after ``end``."""
        lo = min(bisect_right(self.at, start - WINDOW_S), len(self.at) - 1)
        hi = max(bisect_right(self.at, end + WINDOW_S), lo + 1)
        return REF_S / statistics.median(self.took[lo:hi])
