"""A fixed reference workload that tracks how fast this machine runs right now.

On a shared host the speed one process gets drifts by tens of percent within
seconds, and by half for minutes on end, so two runs of the same code can differ more than any bound worth
setting.  A workload therefore calls `Probe.tick()` between its operations:
at most once per `INTERVAL` seconds it runs `reference_work()`, a fixed mix of
interpreter, exact-rational and small dense linear-algebra work like the
program's own, and records how long it took.  Probe time is never counted
as operation time.

`Probe.reference_seconds()` turns measured operation seconds into reference
seconds: each operation's time times REFERENCE_S over the probe's time,
interpolated at the operation's midpoint.  A reference second is a second
of a machine on which `reference_work()` takes REFERENCE_S.  The reference
work is the benchmark's own code, so a change to the program moves
reference seconds exactly as it moves seconds.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

# The fastest reference_work() ran on a 2-vCPU x86-64 VM with Python 3.11; on a
# slower machine, or in a slow spell, reference seconds are fewer than seconds.
REFERENCE_S = 0.015
INTERVAL = 1.0
REPEATS = 3

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0
_MATRIX = _MATRIX + _MATRIX.T + 4.0 * np.eye(8)


def reference_work() -> float:
    total = 0
    table = {}
    for i in range(55000):
        total += i * i % 7
        table[i & 255] = total
    exact = []
    for i in range(1, 700):
        exact.append(Fraction(i % 5 + 1, i % 7 + 2) * Fraction(3, i % 11 + 1) + Fraction(1, i))
    vec = np.ones(8)
    for _ in range(270):
        vals, vecs = np.linalg.eigh(_MATRIX)
        vec = (vecs * np.clip(vals, 0.0, None)) @ (vecs.T @ vec)
        vec /= float(np.linalg.norm(vec))
    return float(total) + float(sum(exact)) + float(vec[0])


class Probe:
    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0
        self.last = -float("inf")

    def tick(self) -> None:
        if perf_counter() - self.last >= INTERVAL:
            self.sample()

    def sample(self) -> None:
        """The fastest of REPEATS back-to-back runs, so a single preemption does not count."""
        start = perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            reference_work()
            best = min(best, perf_counter() - t0)
        self.last = perf_counter()
        self.spent += self.last - start
        self.samples.append(((start + self.last) / 2.0, best))

    def reference_seconds(self, seconds: Sequence[float], midpoints: Sequence[float]) -> float:
        times, probe_s = zip(*self.samples)
        speed = REFERENCE_S / np.interp(np.asarray(midpoints), times, probe_s)
        return float(np.dot(seconds, speed))
