"""Reference kernels that measure how fast the machine runs right now.

On a shared host the same operation can take up to twice as long from one
minute to the next, and a run's medians drift with it.  Each workload
therefore also times a fixed kernel that does the same kind of work without
calling envdet, just before its operations, and reports every time scaled
to the speed at which the kernel takes ``REFERENCE_S[workload]`` seconds:

    reported = measured * REFERENCE_S[workload] / kernel time now

A change to envdet moves the measured time and leaves the kernel alone, so
it moves the reported time by the same factor.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_PAIR = np.array([0.3, 0.7])
_GRID = np.linspace(0.01, 3.0, 40000)


def small_arrays() -> None:
    """Python-level loop of numpy calls on 2-element arrays, like the
    quadrature nodes of one scalar evaluation."""
    for k in range(1, 61):
        r = _PAIR * (0.05 * k)
        small = r < 0.5
        big = r[~small]
        den = -np.expm1(-big)
        out = np.empty_like(r)
        out[small] = r[small] ** 3 / 720.0
        out[~small] = (1.0 - den) / den - 1.0 / big
        float(np.max(np.abs(out)))


def large_arrays() -> None:
    """Masked elementwise numpy on 40000-element arrays, like the kernel
    and integrand evaluations of one grid scan."""
    for k in range(1, 4):
        r = _GRID * (0.5 * k)
        small = r < 0.5
        big = r[~small]
        den = -np.expm1(-big)
        (1.0 - den) / den - 1.0 / big + 0.5 - big / 12.0
        acc = 0.0
        for _ in range(8):
            acc = acc * r[small] + 0.1


def exact_arithmetic() -> None:
    """Fraction sums like the Dedekind sums of the verify suite, and
    mid-size numpy work like its quadratures."""
    total = Fraction(0)
    for j in range(1, 200):
        total += Fraction(j, 201) * Fraction(j * 7 % 201, 201)
    for k in range(1, 12):
        r = _GRID[:4000] * k
        np.sum(-np.expm1(-r) / r)


KERNELS = {"point": small_arrays, "grid": large_arrays, "verify": exact_arithmetic}

# Kernel times in the fast phase of the host the benchmark was defined on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6), so that reported times read about
# as measured when that host runs at full speed.
REFERENCE_S = {"point": 0.6e-3, "grid": 1.75e-3, "verify": 1.05e-3}


class Speed:
    """Scale factor from measured to reference time for one workload.

    A sample takes the fastest of three kernel runs, which filters out
    interrupts.  The host switches between a slow and a fast phase every few
    seconds, so a sample holds for at most ``INTERVAL_S``.
    """

    INTERVAL_S = 0.1

    def __init__(self, workload: str):
        self.kernel = KERNELS[workload]
        self.reference = REFERENCE_S[workload]
        self._factor = 1.0
        self._measured_at = -float("inf")

    def sample(self) -> float:
        """The factor now: the fastest of three kernel runs."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return self.reference / min(times)

    def factor(self) -> float:
        """The factor now, sampled again at most every ``INTERVAL_S``."""
        if time.perf_counter() - self._measured_at >= self.INTERVAL_S:
            self._factor = self.sample()
            self._measured_at = time.perf_counter()
        return self._factor
