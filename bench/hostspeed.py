"""Host speed sampled during a pass, so timings can be stated at one speed.

This benchmark runs on a shared 2-core VM whose speed drifts by up to 2x
over seconds: a 3,000-step simulate took between 0.47 s and 0.98 s within
one minute, and the process's CPU time drifted with it, so the slowdown is
in execution speed, not in scheduling.  Medians over a run cannot remove
that drift; dividing each pass by the speed of a fixed kernel measured
during the same pass cut the spread of 10-second groups from 12% to 4%.

While a pass runs, a SIGALRM timer runs `kernel` (about 1 ms of small
numpy operations and Python arithmetic, the same mix as the simulator)
twice every INTERVAL_S of wall time, in this process, between bytecodes,
and times the second run.  The pass's slowness is the mean kernel time
over REFERENCE_S; a reference-speed time is a measured time, less the
time spent sampling, divided by it.
"""

import signal
from statistics import fmean
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 1.2e-3   # a fixed scale: about the kernel time in a typical minute
_ONES = np.ones(8)


def kernel():
    a = np.zeros(8)
    s = 0
    for k in range(1000):
        a = a + 0.5 * _ONES
        s += k * k % 7
    return s


def sample():
    """Seconds of one kernel run, and seconds the whole sample took.

    The first of two runs refills the caches the workload evicted, so the
    timed second run depends on the host, not on the workload's footprint.
    """
    t0 = perf_counter()
    kernel()
    t1 = perf_counter()
    kernel()
    t2 = perf_counter()
    return t2 - t1, t2 - t0


class HostSpeed:
    """Context manager sampling the kernel time while it is active."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0   # seconds the sampling itself took
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        timed, spent = sample()
        self.samples.append(timed)
        self.spent_s += spent

    @property
    def slowness(self):
        return fmean(self.samples) / REFERENCE_S
