"""Host speed: a fixed calibration kernel timed next to the measured work.

The benchmark runs on shared hosts whose speed drifts.  On a 2-vCPU host
(Xeon, KVM) one fixed solve ran at 2040-3740 solves/s across half-second
windows, its median moved by a factor of two within half an hour, and process
CPU time stayed equal to wall time throughout: the CPU itself ran slower, not
the process less often.  Over ten 30 s runs the raw time metrics then spread
by 6-50% of their median (interquartile range), depending on the hour: often
more than any useful regression bound.

So every block of about BLOCK_S of operations is bracketed by runs of
`kernel_s`, a fixed computation that calls no package code, and each
operation's latency is divided by its block's host factor: the mean of the two
bracketing kernel times over KERNEL_REF_S.  A reported time is then the time
the operation would take on a host where the kernel takes KERNEL_REF_S.

The kernel mixes the kinds of work the package does: scalar float math as in
the root searches, 10k-point array math as in the verification scan, row
pivots on a 4 x 4001 tableau as in the oracle's simplex, small frozen
dataclasses as in the instances and reports, and lookups scattered over a
400 000-entry table.  The last two slow more than the package when
the host slows, the first three less; over six 10 s solve_stream runs whose
speed ranged over a factor of 1.6, log package time against log kernel time
had slope 0.98 for the mix (1.28 for the first three alone).  A change to the
package leaves the kernel alone, so it moves the reported times by its own
effect.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

# About the kernel's median time between operations on the host the
# benchmark was defined on (the 2-vCPU host above, Python 3.11.7, numpy
# 2.4.6), so reported times stay near raw ones there.  It is a unit, not a
# measurement of any run.
KERNEL_REF_S = 1.8e-3
BLOCK_S = 0.1

_X = np.linspace(0.0, 5.0, 10_000)
_TABLEAU = np.random.default_rng(0).random((4, 4001))
_TABLE = {k * 7919: k for k in range(400_000)}
_KEYS = [random.Random(1).randrange(400_000) * 7919 for _ in range(3000)]


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def at(self, x: float) -> float:
        return self.a * x + self.b


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    started = time.perf_counter()
    x = 0.5
    for i in range(600):
        x = math.exp(-x) + math.log1p(x) * 0.5 + math.sqrt(i + 1.0) * 1e-3
    for t in (1.5, 2.0, 2.5):
        h = np.power(_X, t) * 0.3 - np.maximum(_X - 1.0, 0.0) + np.exp(-_X)
        x += float(np.min(h))
    m = _TABLEAU.copy()
    for r in range(12):
        row, col = r % 4, (r * 331) % 4001
        pivot = m[row] / m[row, col]
        for i in range(4):
            if i != row:
                m[i] -= m[i, col] * pivot
        m[row] = pivot
        x += float(np.argmin(m[3]))
    for i in range(300):
        pair = _Pair(a=i * 0.5, b=1.0)
        x += pair.at(0.3) + abs(pair.a - pair.b) + sum(v for v in (pair.a, pair.b, x % 3.0))
    x += sum(_TABLE[k] for k in _KEYS)
    elapsed = time.perf_counter() - started
    assert math.isfinite(x)
    return elapsed


def factor(before_s: float, after_s: float) -> float:
    """Host factor of the work between two kernel runs: > 1 on a slower host."""
    return 0.5 * (before_s + after_s) / KERNEL_REF_S
