"""Wall times corrected for the speed the machine runs at, moment to moment.

On a shared machine the same Python code can run 1.5 times slower for
seconds to tens of seconds at a stretch, which no in-run repetition averages
away. So the benchmark runs a short fixed reference kernel (interpreter work
plus small numpy operations, the mix the protocol itself does) at every
boundary it times (around each epoch, unit and set-up) and, while sampling,
every ``period`` seconds from a SIGALRM handler in the main thread. Each
stretch of wall time between two kernel runs is scaled by ``REF_NOMINAL_S``
over the mean of those two runs' times, which reports it as if the machine
ran at the speed where the kernel takes ``REF_NOMINAL_S``. The kernels' own
time is left out. Raw times are reported beside the corrected ones.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

# About the kernel's time on a 2-vCPU Intel Xeon at 2.1 GHz (Python 3.11,
# numpy 2.4) in its faster phases; it only sets the scale of corrected times.
REF_NOMINAL_S = 0.002


def reference_kernel() -> int:
    """Fixed work: dict and attribute lookups, int arithmetic and small-array
    numpy calls, about as interpreter-bound as one protocol iteration."""
    rows = [np.linspace(0.0, 1.0 + i / 64.0, 10) for i in range(64)]
    acc = 0
    for _ in range(12):
        table = {}
        for i, row in enumerate(rows):
            units = np.rint(row * 1024.0).astype(np.int64)
            table[i] = units
            acc += int(units[3]) % 7 + (i * 31) % 5
        acc += int(np.stack(list(table.values())).sum(axis=0)[0])
    return acc


class SpeedClock:
    """A timeline of reference-kernel runs ("marks")."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._busy = False

    def mark(self) -> int:
        self._busy = True
        # a collection of the program's heap inside the kernel would charge
        # the heap's size to the machine's speed
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            self.marks.append((start, time.perf_counter()))
        finally:
            gc.enable()
            self._busy = False
        return len(self.marks) - 1

    @contextlib.contextmanager
    def sampling(self, period: float):
        """Also mark every ``period`` seconds of wall time until exit."""

        def on_alarm(signum, frame):
            if not self._busy:
                self.mark()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def between(self, first: int, last: int) -> tuple[float, float]:
        """(raw, corrected) seconds from mark ``first`` to mark ``last``,
        leaving out the time of the kernel runs themselves."""
        raw = corrected = 0.0
        for i in range(first, last):
            (s0, e0), (s1, e1) = self.marks[i], self.marks[i + 1]
            segment = s1 - e0
            raw += segment
            corrected += segment * REF_NOMINAL_S * 2.0 / ((e0 - s0) + (e1 - s1))
        return raw, corrected
