"""A clock that reads seconds at a reference machine speed.

On a shared 2-vCPU Intel Xeon VM the CPU's speed was seen to swing by half
within a second and to stay slow or fast for minutes, so the wall time of
the same pass differed by a third from one run to the next.  `RefClock`
samples the speed while the program runs: every `INTERVAL_S` of wall time
a signal
handler times a fixed pure-Python kernel (Fraction sums and dict updates,
the program's own kind of work), and the wall time elapsed since the last
sample is scaled by REF_KERNEL_S over the kernel's time, averaged over the
samples on either side.  The kernel's own time is left out.  A pass that
does the same work then reads the same reference seconds whether the host
was fast or slow; a program that does less work reads fewer.

REF_KERNEL_S is about the kernel's time on that VM (Python 3.11) in its
fast phases, so reference seconds there are close to the fastest wall
seconds.  The kernel samples cost about 5% of the wall time; they are not
counted in any reported time.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
REF_KERNEL_S = 0.002


def kernel() -> Fraction:
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 600):
        total += Fraction(i, i + 7)
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted(counts.items())
    return total


def kernel_scale() -> float:
    """Reference seconds per wall second right now, from one kernel run."""
    t0 = perf_counter()
    kernel()
    return REF_KERNEL_S / (perf_counter() - t0)


class RefClock:
    """Reference seconds since `start()`; read with `now()` between calls.

    Uses SIGALRM and the process's real-time interval timer, so one clock
    per process, in the main thread.
    """

    def __init__(self):
        self.ref = 0.0  # reference seconds up to wall time self.last
        self.last = 0.0
        self.scale = 1.0  # reference seconds per wall second, latest sample
        self.kernel_s = 0.0  # wall seconds spent timing the kernel
        self.samples = 0

    def start(self) -> None:
        self.scale = kernel_scale()
        self.last = perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        scale = kernel_scale()
        self.ref += (t0 - self.last) * (self.scale + scale) / 2
        self.scale = scale
        self.samples += 1
        self.last = perf_counter()
        self.kernel_s += self.last - t0

    def now(self) -> float:
        """Reference seconds so far, extrapolating at the latest speed."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self.ref + (perf_counter() - self.last) * self.scale
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
