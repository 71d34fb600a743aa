"""Machine-speed correction for the benchmark's times.

On a shared virtual machine the same work can take 1.5x longer from one
second to the next, because other guests load the host. No counter inside
the guest shows it: CPU time grows with wall time, steal time stays 0, and
there are no hardware counters. So while a timed call runs, a SpeedMeter
samples the machine's speed with a fixed probe every INTERVAL_S seconds (a
SIGALRM timer). The probe mixes a Python loop and small numpy calls, as the
program does; each half alone followed the program's slowdowns less closely
(README.md). A sample due during a long C call waits until the call returns.

The meter reports two times for the call:

- wall_s: its wall time less the probe's own time.
- ref_s: each stretch of wall time between probes divided by the slowdown
  the probes around it measured, summed. The slowdown is the median probe
  time of the nearest samples over REF_PROBE_S, the probe's fastest time in
  a tight loop on a 2-vCPU x86_64 VM. ref_s reads as "seconds at the
  reference speed". The program's own work is timed in full: a program
  that does 10% more work reads 10% higher.

The probe code is the benchmark's own, so the correction is the same on
every commit of the program.
"""
from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
REF_PROBE_S = 4.3e-4
SMOOTH = 2   # samples on each side in the median of a slowdown


_U = np.array([0.1, 0.2, 0.3])
_V = np.array([0.3, -0.1, 0.7])


def _probe():
    """Python arithmetic and small numpy calls, the program's own mix."""
    total = 0
    for i in range(4000):
        total += i * i
    for _ in range(10):
        np.cross(_U, _V)
    return total


def _timed_probe():
    start = perf_counter()
    _probe()
    return perf_counter() - start


class SpeedMeter:
    """Context manager: time the body, sampling the machine's speed."""

    def __enter__(self):
        self.samples = []   # (start, probe seconds)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.after = _timed_probe()   # for a body too short to be sampled
        return False

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, _timed_probe()))

    @property
    def probe_s(self):
        return sum(d for _, d in self.samples)

    @property
    def wall_s(self):
        return self.end - self.start - self.probe_s

    @property
    def ref_s(self):
        """The body's time at the reference speed, as above."""
        if not self.samples:
            return (self.end - self.start) * REF_PROBE_S / self.after
        probes = [d for _, d in self.samples]
        total, since = 0.0, self.start
        for i, (start, d) in enumerate(self.samples):
            near = probes[max(0, i - SMOOTH):i + SMOOTH + 1]
            total += (start - since) * REF_PROBE_S / median(near)
            since = start + d
        return total + (self.end - since) * REF_PROBE_S / median(
            probes[-SMOOTH - 1:])
