"""Speed reference for the benchmark's timings.

The machine this benchmark was written on is a shared virtual machine whose
speed drifts by up to 2x, from second to second and over minutes; a drift
longer than a run moves raw times more than most code changes would.  A run
therefore times a fixed slice of reference work (a probe) around the work
it measures and reports each time at the reference speed, at which a probe
takes REF_PROBE_S.  The probe is the benchmark's own code and uses the
standard library only, so no change to the program moves it.  This module
imports nothing of arcperm: set-up time runs it inside the fresh interpreter
whose import it times.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

# A probe takes about REF_PROBE_S on one vCPU of the 2-vCPU Xeon virtual
# machine the benchmark was written on; the constant only sets the unit.
REF_PROBE_S = 0.02
PROBE_REPS = 8


def reference_work() -> int:
    """A fixed slice of pure-Python work of the program's kinds: products of
    polynomials held as dicts with tuple keys and big-integer coefficients,
    and comparisons scanning a tuple, as a pattern search does."""
    acc = 0
    for r in range(PROBE_REPS):
        a = {(i, j): i * 31 + j + r for i in range(12) for j in range(6)}
        product: dict = {}
        for ka, va in a.items():
            for kb, vb in a.items():
                key = (ka[0] + kb[0], ka[1] + kb[1])
                product[key] = product.get(key, 0) + va * vb * 1000003
        perm = tuple((7 * i + r) % 13 for i in range(13))
        acc += len(product) + sum(perm[i] < perm[j] > perm[j + 1]
                                  for i in range(11) for j in range(i + 1, 12))
    return acc


def probe() -> float:
    """Measured seconds of one slice of reference work."""
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REF_PROBE_S * 2 / (before + after)


class Timeline:
    """The probes of one pass: one before it, one after it and, while
    ``periodic()`` is active, one every ``every`` seconds from a timer
    signal, inside an op or between ops."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def take(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextmanager
    def periodic(self, every: float):
        previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, reference-speed) seconds of the work from t0 to t1,
        which lies between the first probe and the last.  Probes that ran
        inside the interval are left out, and each stretch of work between
        two probes is scaled by those two."""
        k = bisect.bisect_right(self.starts, t0)  # the first probe after t0
        measured = scaled = 0.0
        cursor = t0
        while True:
            stop = min(self.starts[k], t1)
            before, after = self.ends[k - 1] - self.starts[k - 1], self.ends[k] - self.starts[k]
            measured += stop - cursor
            scaled += normalise(stop - cursor, before, after)
            if stop == t1:
                return measured, scaled
            cursor, k = self.ends[k], k + 1
