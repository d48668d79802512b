"""Machine-speed reference: times the benchmark reports at one fixed speed.

A shared machine changes speed by up to 2x for seconds to minutes at a time,
and a process's CPU time moves with its wall time, so neither the wall time
nor the CPU time of a request repeats from run to run.  A ``Speedometer``
runs a fixed probe between or in the middle of the requests and records how
long it took.  A request's time at the reference speed is its measured time
times the probe's reference time over the median probe time around it: the
time it would have taken on a machine where the probe takes its reference
time.  The probes are the benchmark's own code, so no change to the package
moves them.

Two probes, because in-process work and a fresh child process slow down
differently (a child's start-up is page faults and file reads as much as
bytecode):

``kernel``        pure-Python work of the kind the package does, run in
                  process every ``KERNEL_EVERY_S`` seconds from a ``SIGALRM``
                  handler; its own time is taken out of the request it
                  interrupted.  For in-process requests.
``child_kernel``  a fresh interpreter that runs ``kernel`` a few times, run
                  between requests, at most every ``CHILD_EVERY_S`` seconds,
                  and around each set-up.  For requests and set-ups that
                  start a child process.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# each probe at the reference speed: about its median on a shared 2-vCPU
# x86-64 machine with Python 3.11.7
KERNEL_REF_S = 0.0025
CHILD_REF_S = 0.12
CHILD_CALLS = 10
# seconds between samples: the kernel's timer, and the child probe's least spacing
KERNEL_EVERY_S = 0.05
CHILD_EVERY_S = 1.0
# probe samples up to this far before a request's start and after its end
# make its speed estimate
WINDOW_S = 1.0

_A = {(i, j, k): (i + 2 * j - k) or 1 for i in range(4) for j in range(4) for k in range(3)}
_B = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}
_C = {(i, 0, k): i * 7 + k - 3 for i in range(5) for k in range(4)}


def kernel() -> int:
    """The work the package does most: products of sparse polynomials held as
    dicts from exponent tuples to integer and ``Fraction`` coefficients."""
    total = 0
    for b in (_B, _C):
        out: dict = {}
        for ea, ca in _A.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        total += sum(1 for c in out.values() if c)
    return total


def child_kernel() -> None:
    code = f"from speed import kernel\nfor _ in range({CHILD_CALLS}): kernel()"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, check=True, stdout=subprocess.DEVNULL)


class Speedometer:
    """Samples a probe while entered: when ``sample`` is called and, with
    ``timer``, from a timer signal.

    Pause the timer around a child process, so that the probe never takes
    the child's CPU.
    """

    def __init__(self, probe, ref_s: float, every_s: float, timer: bool = False, warmup: int = 1):
        self.probe, self.ref_s, self.every_s = probe, ref_s, every_s
        self.timer, self.warmup = timer, warmup
        self.times: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0  # seconds spent in the probe so far

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        self.probe()
        t1 = perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.busy += t1 - t0

    def tick(self) -> None:
        """Sample if the last sample is ``every_s`` old."""
        if perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def _set_timer(self, on: bool) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, self.every_s if on else 0, self.every_s if on else 0)

    def __enter__(self) -> "Speedometer":
        for _ in range(self.warmup):
            self.probe()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        self._set_timer(True)
        return self

    def __exit__(self, *exc) -> None:
        self._set_timer(False)
        if self.timer:
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextmanager
    def paused(self):
        """No timer samples inside."""
        self._set_timer(False)
        try:
            yield
        finally:
            self._set_timer(True)

    def scale(self, t0: float, t1: float) -> float:
        """The reference time over the median probe time from WINDOW_S before t0 to WINDOW_S after t1."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < 3:  # too few samples in the window: the nearest three
            lo = max(0, min(bisect_left(self.times, t0) - 1, len(self.times) - 3))
            hi = lo + 3
        return self.ref_s / statistics.median(self.durations[lo:hi])

    def ratio(self) -> float:
        """Median probe time over the reference time: above 1, the run saw a slower machine."""
        return statistics.median(self.durations) / self.ref_s
