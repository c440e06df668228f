"""The host's speed during a run, measured by a fixed kernel.

On a shared host the speed of one process drifts by up to 40 % over tens
of seconds to minutes, in CPU time as much as in wall time.  The drift moves
every timing of a run together, so it sets the run-to-run spread of the
timing metrics, and a longer run does not average it away.

A fixed pure-Python kernel that runs no hyplat code, exact Fraction
elimination plus big-integer and dict work of the kind hyplat does, is timed
through the run: after every ``EVERY`` seconds of timed latency and around
every cold start.  Its mean time tracks the drift: over 17-34 s windows of
one run, the ratio of hyplat's latency to the kernel's mean spread by 1-4 %
where hyplat's latency alone spread by 6-12 %.  ``factor`` is
``REFERENCE_S`` over that mean; a measured time multiplied by it is the time
the same work takes at the reference speed.  A change to hyplat does not
move the kernel, so a faster hyplat still shows as a smaller time.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Mean kernel time on a 2-core x86-64 virtual machine, a fixed constant: it
# only sets the scale of the reported times.
REFERENCE_S = 2.5e-3
# Seconds of timed latency per kernel timing: about 5 % extra wall time.
EVERY = 0.05

_MATRIX = [[Fraction((i * 7 + j * 3 + i * j) % 13 - 6, 1 + (i + 2 * j) % 5)
            for j in range(8)] for i in range(8)]
_INTS = [random.Random(1).getrandbits(200) for _ in range(400)]


def kernel() -> int:
    """Exact elimination on an 8x8 Fraction matrix, then products of
    200-bit integers reduced into a dict of Fractions."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc: dict[int, Fraction] = {}
    for i, x in enumerate(_INTS):
        y = (x * _INTS[i - 1]) % 1000003
        acc[y % 101] = acc.get(y % 101, 0) + Fraction(y % 97 + 1, i % 89 + 1)
    return len(acc) + sum(1 for row in m if row[-1])


class HostSpeed:
    """Kernel timings of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def after(self, seconds: float) -> None:
        """Called after each timed input with its latency: one timing per
        ``EVERY`` seconds of it, so that the mean weighs the host's speed by
        the time spent in hyplat, not by the number of inputs."""
        self.due += seconds
        while self.due >= EVERY:
            self.due -= EVERY
            self.sample()

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)
