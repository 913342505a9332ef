"""The machine-speed probe: a fixed pure-Python kernel in an interpreter of its own.

The benchmark starts this file as a child process.  Every line the child
reads on standard input runs the kernel once; the child answers with the
kernel's host seconds on one line, and exits at end of input.  Its heap
is its own, so nothing the program under test allocates, keeps alive or
leaves as garbage changes the kernel's time; only the machine's speed
does.

Run by hand::

    echo | python3 perfbench/probe.py
"""

from __future__ import annotations

import random
import sys
import time


class _Meter:
    __slots__ = ("t", "e")

    def __init__(self) -> None:
        self.t = 0.0
        self.e = 0.0

    def step(self, dt: float, watts: float) -> float:
        self.t += dt
        self.e += watts * dt
        return self.e


class ReferenceKernel:
    """A fixed pure-Python workload: the probe of the machine's current speed.

    One half is compute-bound: method calls, attribute updates, float
    arithmetic and small dict and list traffic, the operations the
    simulators spend their time on.  The other half is memory-bound:
    scattered reads over a list larger than the CPU caches, and small
    object allocation.  A shared machine slows the two by different
    amounts, and the program sits in between.
    """

    ITERATIONS = 80_000
    SIZE = 300_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self.values = [rng.random() for _ in range(self.SIZE)]
        self.order = [rng.randrange(self.SIZE) for _ in range(self.SIZE // 2)]

    def seconds(self) -> float:
        """Host seconds of one run of the kernel."""
        start = time.perf_counter()
        self._compute()
        self._memory()
        return time.perf_counter() - start

    def _compute(self) -> None:
        meter, latest, window = _Meter(), {}, []
        for i in range(self.ITERATIONS):
            e = meter.step(0.001 * (i % 7 + 1), 300.0 + (i % 13))
            latest[i % 97] = e
            window.append((i, e))
            if len(window) > 64:
                window.clear()
        sorted(latest.values())

    def _memory(self) -> None:
        values, total, kept = self.values, 0.0, []
        for j, i in enumerate(self.order):
            total += values[i]
            if j % 4 == 0:
                kept.append((j, total, i))
        {entry[0]: entry for entry in kept}


def main() -> int:
    """Answer every input line with one kernel time."""
    kernel = ReferenceKernel()
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
