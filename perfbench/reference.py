"""A fixed pure-Python task that measures how fast the host runs.

The benchmark's host is shared with other tenants, and its speed moves by
up to 2.5x in states that last minutes, so runs of the same code land in
fast or slow states.  The benchmark runs the task below after every
timed operation and set-up sample, until the task has taken ``SHARE`` of
the time of the timed work so far.  At the end of the run, every time is
scaled by ``REFERENCE_S`` over the task's mean time in that run.  That
gives the time the work would take on this host when the task takes
``REFERENCE_S``.

In a slow state a single run of the task takes 56 to 153 ms where the
mean is 100 ms, far more scatter than the operations show.  So the
factor is taken over the whole run, which holds about 40 to 100 runs of the
task, and not per operation.

The task uses no frameparse code, so a change to the program does not
move it.  It runs with the garbage collector off, so the program's heap
does not move it either.
"""

from __future__ import annotations

import gc
import time

# Seconds the task takes on a quiet 2-vCPU host (Python 3.11.7), where
# scaled and measured times agree.
REFERENCE_S = 0.0438
SHARE = 0.2
_LENGTH = 41
_SYMBOLS = 8

# A toy binary grammar, (left, right) -> parents, and a fixed input of
# preterminals.
_RULES = {(a, b): tuple((a + b + k) % _SYMBOLS for k in range(1 + (a ^ b) % 2))
          for a in range(_SYMBOLS) for b in range(_SYMBOLS)
          if (3 * a + b) % 5 < 2}
_INPUT = tuple((5 * i) % _SYMBOLS for i in range(_LENGTH))


def _task():
    """Count the parses of ``_INPUT`` with CKY: tuple-keyed dictionary
    lookups, small dictionaries and loops, like a chart parser's."""
    n = len(_INPUT)
    chart = {(i, i + 1): {symbol: 1} for i, symbol in enumerate(_INPUT)}
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = {}
            for k in range(i + 1, j):
                right = chart[k, j]
                for a, count_a in chart[i, k].items():
                    for b, count_b in right.items():
                        for parent in _RULES.get((a, b), ()):
                            cell[parent] = (cell.get(parent, 0)
                                            + count_a * count_b) % 1000003
            chart[i, j] = cell
    return chart[0, n]


def time_task():
    """Seconds the task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Runs of the task through one benchmark run."""

    def __init__(self):
        self.work = 0.0  # seconds of timed work so far
        self.runs = 0
        self.seconds = 0.0  # spent in the task

    def after(self, work):
        """Count ``work`` seconds of timed work, then run the task until
        it has taken ``SHARE`` of the timed work's time, and at least
        once."""
        self.work += work
        while self.runs == 0 or self.seconds < SHARE * self.work:
            self.seconds += time_task()
            self.runs += 1

    def scale(self):
        """Factor from measured seconds to reference seconds."""
        return REFERENCE_S * self.runs / self.seconds
