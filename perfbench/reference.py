"""A fixed block of pure-Python work that measures the machine's speed.

The benchmark runs on shared cores whose speed drifts by tens of percent
from one minute to the next, far more than a change to the package should
be allowed to cost.  The runner times this block between the items it
measures and scales each item's time by NOMINAL_S over the median time of
the blocks run around it (speed_s), so the reported times are those of a
machine on which the block takes NOMINAL_S seconds.

The block imitates the package's inner loops without calling it, so a
change to the package never changes the block: rational orbits of
x -> x^2 + c (dynamics), arithmetic mod small primes (ffjac), integer
square roots of growing numbers (curves) and JSON of a small report
(cli).  It uses only the standard library.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction
from math import isqrt

# the block time that reported times are scaled to; on the 2 shared cores
# of an x86-64 host under CPython 3.11 the block took 28 to 45 ms as the
# host's load varied
NOMINAL_S = 0.030
ROUNDS = 8


def block() -> int:
    """The fixed work; returns a checksum so nothing is skipped."""
    return sum(_round() for _ in range(ROUNDS))


def _round() -> int:
    acc = 0
    for c in (Fraction(-29, 16), Fraction(-21, 16), Fraction(3, -4)):
        for x0 in range(-12, 13):
            x = Fraction(x0, 4)
            for _ in range(5):
                x = x * x + c
            acc += x.denominator.bit_length()
    for p in (23, 31, 47, 61):
        squares = {y * y % p for y in range(p)}
        for x in range(p):
            for y in range(p):
                if (x * x * x + 3 * x * y + 7) % p in squares:
                    acc += 1
    n = 10 ** 20
    for k in range(1, 1500):
        r = isqrt(n * k + 12345)
        acc += r * r == n * k + 12345
    report = {"checks": [{"id": f"c{i}", "status": "pass", "value": [i, i * i]}
                         for i in range(150)]}
    acc += len(json.dumps(report, sort_keys=True))
    return acc


def speed_s(groups: list[list[float]], i: int) -> float:
    """The block time that stands for the machine's speed while the work
    between groups of blocks i and i + 1 ran: the median of the blocks of
    those two groups and of the group on either side, so that blocks
    slowed by a passing spike do not scale the work they bracket."""
    return statistics.median(t for g in groups[max(0, i - 1):i + 3] for t in g)


def seconds() -> float:
    """Time of one run of the block."""
    t0 = time.perf_counter()
    block()
    return time.perf_counter() - t0


def group(budget_s: float) -> list[float]:
    """Times of blocks run one after another until they have taken
    budget_s; at least one."""
    times = [seconds()]
    while sum(times) < budget_s:
        times.append(seconds())
    return times
