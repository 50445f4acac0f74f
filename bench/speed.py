"""Speed-corrected timing: seconds on a reference machine, not on this one.

The benchmark runs on a few cores of a shared host whose speed changes by
half or more within seconds, as neighbours come and go; the same command's
wall time swings with it, far past any useful regression bound.  A
``SpeedClock`` times a block of code and, every ``interval`` seconds, a
fixed micro-kernel (``kernel``, a mix like the program's own work) from a
``SIGALRM`` handler.  Each stretch of the block between two samples is
scaled by how much slower than ``REF_KERNEL_S`` the kernel ran around it,
to the power ``SENSITIVITY``, so the result is the block's time on an
unloaded host: the host's speed drops out, the program's does not.  The
kernel's own time is left out of both the raw and the corrected figures.

The program slows by less than the kernel does: by about the square root
of the kernel's slow-down, fitted over fresh-interpreter set-ups and runs
of all four workloads on a 2-vCPU cloud host (exponents 0.5-0.6 fit best;
dividing by the full slow-down over-corrects as badly as no correction).
The fit varies with what the neighbours run, so the correction is not
exact; medians over repetitions take out the rest.

    with SpeedClock() as clock:
        work()
    clock.raw, clock.ref, clock.cpu_raw, clock.cpu_ref   # seconds

The block must run in the main thread and must not use ``SIGALRM`` itself.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List

import numpy as np

# seconds between kernel samples
INTERVAL = 0.1
# the kernel's time on the reference machine, about its fast-phase time
# on a 2-vCPU x86-64 cloud host under CPython 3.11 and numpy 2; corrected
# seconds read close to raw seconds when that host is unloaded
REF_KERNEL_S = 1.0e-3
# exponent of the kernel's slow-down that the program's follows (see above)
SENSITIVITY = 0.5
# samples either side of a stretch whose median sets its speed: about a
# second of the host's speed, and one sample hit by an interrupt cannot
# skew the stretch
NEIGHBOURS = 5

_A = np.ones(3)
_B = np.arange(3.0)
# a pointer chase through a list larger than the L2 cache
_ITEMS = list(range(1 << 17))
_ORDER = random.Random(0).sample(range(1 << 17), 4000)


def kernel() -> int:
    """About equal shares of what the program spends its time on.

    Scalar float steps, calls into numpy on 3-vectors, list lookups that
    miss the cache and float formatting.  Under a busy neighbour these slow
    down by different amounts (1.3x to 2.2x measured); their sum tracks
    all four workloads' slow-downs more evenly than any one of them.
    """
    x, v, acc = 0.3, 0.1, 0.0
    for _ in range(3000):
        x += 0.001 * v
        v -= 0.001 * (x * x * x - x)
        acc += x * v
    a = _A
    for _ in range(150):
        a = a * 0.5 + _B
        acc += float(np.dot(a, _B))
    total = 0
    for i in _ORDER:
        total += _ITEMS[i]
    text = ",".join(repr(k * 0.1) for k in range(800))
    return total + len(text) + int(acc)


class SpeedClock:
    """Times a block in raw and in reference seconds (see the module doc)."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.raw = self.ref = self.cpu_raw = self.cpu_ref = 0.0
        self.samples = 0

    def _sample(self) -> None:
        c0 = time.process_time()
        # the first pass finds the kernel's code and data evicted by the
        # block, by more the larger the block's working set; only the
        # second, warm pass measures the host
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._kernels.append(t1 - t0)
        self._kernel_cpu += time.process_time() - c0
        self._last = t1

    def _tick(self, signum, frame) -> None:
        self._stretches.append(time.perf_counter() - self._last)
        self._sample()

    def __enter__(self) -> "SpeedClock":
        # stretch i of the block lies between kernel samples i and i + 1
        self._stretches: List[float] = []
        self._kernels: List[float] = []
        self._kernel_cpu = 0.0
        self._sample()
        self._kernel_cpu = 0.0
        self._cpu_start = time.process_time()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._stretches.append(time.perf_counter() - self._last)
        cpu = time.process_time() - self._cpu_start - self._kernel_cpu
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        kernels = self._kernels
        self.raw = sum(self._stretches)
        self.ref = 0.0
        for i, stretch in enumerate(self._stretches):
            near = kernels[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
            self.ref += stretch * (REF_KERNEL_S / statistics.median(near)) ** SENSITIVITY
        self.samples = len(kernels)
        self.cpu_raw = cpu
        self.cpu_ref = cpu * self.ref / self.raw if self.raw > 0 else 0.0
