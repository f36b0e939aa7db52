"""A fixed reference computation that gauges the host's current speed.

The hosts this benchmark runs on drift in speed by 20-30% over tens of
seconds, and the drift hits every process alike: two copies of one sweep
pinned to the two CPUs of a 2-CPU host slowed and sped up together.  A
run therefore times short *slices* of this benchmark-owned computation
between its operations (never during them), and scales its timings to
the host speed at which one slice takes :data:`NOMINAL_S`.  The slice
mixes interpreter work (dict stores, integer arithmetic, list sorting)
and NumPy work (gathers, cumulative sums, sorts, a small matrix product)
like the program does.  The program never calls it, so a change to the
program cannot move it.

In a five-minute probe of back-to-back ``wm-m2-ens`` sweeps, 30-second
windows spread 0.27 (IQR / median) in raw sweep time and 0.03 once scaled
this way; in a four-minute probe of ``wm-m2-e01-ens`` sweeps, 0.14 and
0.06.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one slice takes on the nominal host (about what it took on
#: the 2-CPU host the bounds were set on).
NOMINAL_S = 0.2


class Reference:
    """Runs and records reference slices."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(40_000)
        self._index = rng.integers(0, 40_000, 40_000)
        self._matrix = rng.random((64, 64))
        self.times: list[float] = []

    def slice(self) -> float:
        """Run one slice; return and record its wall time."""
        started = time.perf_counter()
        table: dict[int, int] = {}
        x = 0
        kept = []
        for i in range(500_000):
            table[i & 255] = x
            x = (x * 31 + i) & 0xFFFFF
            if i & 7 == 0:
                kept.append(x)
        kept.sort()
        for _ in range(150):
            gathered = self._values[self._index]
            np.cumsum(gathered, out=gathered)
            gathered.sort()
            self._matrix @ self._matrix
            np.add.reduceat(gathered, self._index[:256] % 1000)
        elapsed = time.perf_counter() - started
        self.times.append(elapsed)
        return elapsed

    def slowdown(self, since: int = 0) -> float:
        """Mean time of the slices from index ``since`` on, over
        :data:`NOMINAL_S`: above 1 while the host runs slow."""
        times = self.times[since:]
        return sum(times) / len(times) / NOMINAL_S
