"""A wall clock rescaled to a fixed CPU speed.

On a shared virtual machine the speed of one core swings by up to 60%
on a scale of seconds, because other tenants load the same physical
core. Medians of raw wall times over a 10-second run then differ by
about 40% from run to run. `RefClock` samples the current speed every
`PERIOD_S` seconds with a fixed pure-Python kernel, run from a SIGALRM
handler, and advances at `REF_KERNEL_S / kernel time` seconds per wall
second. Time spent in the kernel itself is not counted. Durations read
from it are what the work would have taken at the reference speed, and
repeat within about 3% on a fixed input.
"""

from __future__ import annotations

import signal
import statistics
import time

# Duration of `_kernel` at the reference speed: the 5th percentile of
# 3000 runs on one core of a 2-vCPU Intel Xeon VM under CPython 3.11.
REF_KERNEL_S = 0.25e-3
PERIOD_S = 0.025


def _kernel() -> int:
    # Integer arithmetic, dict stores and loop overhead: the same
    # interpreter work that dominates cfgprint's hot paths.
    h = 0xCBF29CE484222325
    table = {}
    for i in range(1500):
        h = ((h ^ (i & 255)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        table[i & 63] = h
    return h


class RefClock:
    """Context manager; `now()` is valid between enter and exit.

    Only one may be active per process, since it owns SIGALRM.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._acc = 0.0  # reference seconds up to _mark
        self._mark = 0.0  # wall time of the last rate change
        self._rate = 1.0  # reference seconds per wall second
        self._seq = 0  # odd while the handler updates the fields above

    def _sample(self) -> tuple[float, float, float]:
        """Run the kernel once: (start, end, reference seconds per wall second)."""
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        # median of the last three rejects a single interrupted sample
        recent = sorted(self.kernel_s[-3:])
        return t0, t1, REF_KERNEL_S / recent[len(recent) // 2]

    def _tick(self, signum, frame) -> None:
        t0, t1, rate = self._sample()
        self._seq += 1
        self._acc += (t0 - self._mark) * self._rate
        self._mark, self._rate = t1, rate
        self._seq += 1

    def __enter__(self) -> "RefClock":
        for _ in range(3):
            _, self._mark, self._rate = self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Reference seconds since enter (plus an arbitrary offset)."""
        while True:
            seq = self._seq
            value = self._acc + (time.perf_counter() - self._mark) * self._rate
            if seq == self._seq and seq % 2 == 0:
                return value

    def speed(self) -> dict:
        """Summary of the speed samples, for the result record."""
        ms = sorted(s * 1000.0 for s in self.kernel_s)
        return {
            "kernel_ref_ms": REF_KERNEL_S * 1000.0,
            "kernel_median_ms": statistics.median(ms),
            "kernel_p10_ms": ms[len(ms) // 10],
            "kernel_p90_ms": ms[(len(ms) * 9) // 10],
            "samples": len(ms),
        }
