"""Summary statistics for the benchmark, standard library only.

``t_two_sided`` is the benchmark's own Student-t tail, used to check the
p-values that ``frameparse compare`` reports without trusting the
program's t-distribution code.
"""

from __future__ import annotations

import math
import random
from array import array

# The tail is the highest percentile, up to p99, with at least
# TAIL_BEYOND samples beyond it; with fewer than TAIL_MIN_SAMPLES samples
# that percentile would sit inside the body of the distribution.  Above
# p99 the sentence-level samples are the interpreter's cyclic garbage
# collections (tens of ms, a handful per run), so the value would swing
# with how many of them fall into one run.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40
TAIL_CAP_DIVISOR = 100  # at least n/100 samples beyond: p99 at most
# Below TAIL_MIN_SAMPLES, the nearest-rank p90 stands in for the tail:
# the maximum of 11-35 samples follows the host's slowest second more
# than the program.
SMALL_SAMPLE_PERCENTILE = 90


SAMPLE_SIZE = 1 << 16


class Reservoir:
    """A uniform random sample of at most ``SAMPLE_SIZE`` operation
    latencies (Algorithm R), held in an array allocated up front.

    The memory it holds (512 KiB) is the same however many operations a
    run makes, so a faster program does not read as a larger
    ``peak_rss_mb``.  Below ``SAMPLE_SIZE`` operations it keeps them all.
    """

    def __init__(self):
        self._values = array("d", [0.0]) * SAMPLE_SIZE
        self._rng = random.Random(0)
        self.count = 0  # operations added, kept or not

    def add(self, value):
        if self.count < SAMPLE_SIZE:
            self._values[self.count] = value
        else:
            slot = self._rng.randrange(self.count + 1)
            if slot < SAMPLE_SIZE:
                self._values[slot] = value
        self.count += 1

    def values(self):
        return self._values[:min(self.count, SAMPLE_SIZE)]


def tail(samples):
    """(value, percentile) of the highest percentile, up to p99, that
    leaves at least ``TAIL_BEYOND`` samples beyond it.

    With fewer than ``TAIL_MIN_SAMPLES`` samples no such percentile is a
    tail; the nearest-rank ``SMALL_SAMPLE_PERCENTILE`` is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < TAIL_MIN_SAMPLES:
        rank = -(-n * SMALL_SAMPLE_PERCENTILE // 100)
        return ordered[rank - 1], float(SMALL_SAMPLE_PERCENTILE)
    beyond = max(TAIL_BEYOND, -(-n // TAIL_CAP_DIVISOR))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def _betacf(a, b, x):
    """Continued fraction of the regularised incomplete beta function
    (modified Lentz method)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        for step in (numerator,
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + step * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + step / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def t_two_sided(t, df):
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    return regularized_beta(df / 2.0, 0.5, df / (df + t * t))
