"""How fast the machine runs Python right now, from a fixed piece of work.

On a shared host the same job can take up to twice as long from one minute
to the next, and a run's figures then follow the machine rather than the
program. A run of the benchmark therefore times ``probe`` at regular
intervals of wall time, after mechanism runs and between set-ups, takes the
probes' time out of the job times, and scales its time figures by how
much slower or faster the probe ran than ``REFERENCE_S``: a figure reads as
it would on the reference machine, running undisturbed. The probe does not
touch auctionlab, so a change to the program moves only the job times.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The probe's time on the reference machine (2-CPU Xeon VM, Python 3.11.7).
REFERENCE_S = 0.045
# Wall time between two probes; a probe costs about a tenth of that.
INTERVAL_S = 0.5


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction arithmetic and dict updates,
    the kind of work the program does most."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 12_000):
        total += Fraction(i % 97, 1 + i % 13)
        counts[i & 1023] = counts.get(i & 1023, 0) + (i * i) % 7
    return time.perf_counter() - start


class Speedometer:
    """Probes the machine when asked, once more than ``interval`` seconds of
    wall time have passed since the last probe (never, for an infinite
    interval); ``spent`` is the wall time the probes took."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")

    def tick(self) -> None:
        start = time.perf_counter()
        if start - self.last > self.interval:
            self.samples.append(probe())
            self.last = time.perf_counter()
            self.spent += self.last - start

    def slowdown(self) -> float:
        """The machine's mean slowdown over the run against the reference:
        time figures are divided by it, rates multiplied."""
        return statistics.fmean(self.samples) / REFERENCE_S
