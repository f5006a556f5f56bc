"""Machine-speed gauge: scales measured times to a fixed reference speed.

On the reference machine (a 2-vCPU virtual machine) the speed at which
one process runs pure-Python code changes by up to a factor of two within
seconds, with the process's CPU time growing in step with wall-clock time
(the host's other load slows the vCPU without being reported as steal).
Wall-clock times of the same task therefore differ by more between runs
than the benchmark's bounds allow.

The gauge times a short piece of fixed work, a *sample*, between tasks:
one at the start and then one after every task that ends at least
``EVERY_S`` after the previous sample.  The work uses only the standard
library, so no change to ``pbstages`` can move it.  A task's time is
divided by the speed factor around it: the median of the ``2 * WINDOW``
samples nearest to the task, over ``REFERENCE_S``.  Reported times are
thus the times at the speed at which one sample takes ``REFERENCE_S``
seconds, and the raw wall-clock times are kept in the result file.
"""

from __future__ import annotations

import itertools
from statistics import median
from time import perf_counter

# The median sample on the reference machine when it runs fast; a fixed
# constant, so that scaled times of different runs and commits compare.
REFERENCE_S = 0.0002
EVERY_S = 0.01
WINDOW = 3


def _work() -> int:
    def step(a: int, b: int = 1) -> int:
        return (a * b) % 97

    total = 0
    for i in range(1500):
        total += step(i, i & 7)
    table: dict[frozenset, int] = {}
    for combo in itertools.combinations(range(12), 3):
        key = frozenset(combo)
        table[key] = table.get(key, 0) + total
    return len(table)


def sample() -> float:
    """Seconds for one run of the fixed work."""
    started = perf_counter()
    _work()
    return perf_counter() - started


def factor(samples: list[float]) -> float:
    """How much slower than the reference speed the samples ran."""
    return median(samples) / REFERENCE_S


class Gauge:
    """Samples between tasks; scales each task's time by the samples around it."""

    def __init__(self):
        self.samples = [sample()]
        self.slots: list[int] = []
        self._last = perf_counter()

    def after_task(self) -> None:
        """Call once after every task, outside the task's timing."""
        self.slots.append(len(self.samples) - 1)
        if perf_counter() - self._last >= EVERY_S:
            self.samples.append(sample())
            self._last = perf_counter()

    def scale(self, times: list[float]) -> list[float]:
        """``times[i]`` (of the i-th task) at the reference speed."""
        factors = [
            factor(self.samples[max(0, slot - WINDOW + 1) : slot + WINDOW + 1])
            for slot in range(len(self.samples))
        ]
        return [t / factors[slot] for t, slot in zip(times, self.slots)]
