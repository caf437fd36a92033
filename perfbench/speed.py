"""Machine speed, measured next to the timed ops, to put times on one scale.

The small VMs this benchmark runs on change speed with the load of their
host: the same pure-Python loop, timed back to back, takes up to 1.6 times
as long in a slow spell, and spells last from seconds to minutes.  A raw
wall time then says as much about the host as about multifact.

So the timed loop runs a fixed calibration kernel every `EVERY` seconds,
between ops, and each time is multiplied by `REFERENCE_S / kernel time`,
the kernel time being the median of the five samples around it.  The
kernel is pure Python of the same kind multifact runs (recursion, a dict
keyed by tuples, ints and Fractions), frees all it allocates and touches
nothing of multifact.  A change to the program therefore moves scaled
times by the same factor as raw ones, while a change of host speed moves
the kernel and the op together and cancels out.  REFERENCE_S is about the
kernel's time on a 2-vCPU VM at its usual speed, so scaled and raw times
read alike there.
"""

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003
EVERY = 0.1
BEFORE, AFTER = 3, 2


def kernel():
    def parts(n, m):  # partitions of n into parts of at most m, no memo
        if n == 0:
            return 1
        if m == 0:
            return 0
        return parts(n, m - 1) + (parts(n - m, m) if m <= n else 0)

    table = {}
    for i in range(1500):
        table[(i % 37, i)] = i**3
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(table[(i % 37, i)], i + 1)
    return parts(26, 26), total


class Speed:
    """Kernel times sampled during a run, and the scale factors they give."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self):
        start = perf_counter()
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def due(self) -> int:
        """Sample if EVERY seconds have passed since the last sample.

        Returns the number of samples so far, which marks where in the
        sequence of samples the work that follows falls."""
        if self._last is None or perf_counter() - self._last >= EVERY:
            self.sample()
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """REFERENCE_S over the median kernel time of the samples around
        `mark`: the last BEFORE samples taken before it and the first AFTER
        taken after it."""
        return REFERENCE_S / statistics.median(self.samples[max(0, mark - BEFORE):mark + AFTER])
