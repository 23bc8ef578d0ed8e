"""Wall time rescaled to a fixed speed of the machine.

A shared machine can switch, for seconds to minutes at a time, between a
fast state and one up to about 1.8 times slower, and process CPU time slows
with it. So a raw op time says as much about the neighbours as about
splineids. A ``ReferenceClock`` times a region and, alongside it, a short
fixed reference loop: once before the region, once after it and, from a
SIGALRM timer, every ``INTERVAL_S`` during it. The loop is dict, list and
str work in the interpreter, as most of splineids is, and it slows by about
the same factor as the workloads do.

The region's wall time, less the time the loop itself took inside it, times
the mean over the samples of ``NOMINAL_S / loop time``, is the time the
region would have taken at the speed at which the loop takes ``NOMINAL_S``.
Samples fall evenly in wall time, so this mean weighs each stretch of the
region by its length.
"""

import signal
import time

INTERVAL_S = 0.25
NOMINAL_S = 0.006  # the loop's time in the fast state of a 2-vCPU Xeon guest


def reference_loop() -> int:
    d = {}
    for i in range(30_000):
        d[i % 997] = [i, str(i)]
    return len(d)


class ReferenceClock:
    """Times callables in wall seconds and in seconds at the nominal speed.

    After each ``time`` call, also when the callable raised, ``wall_s`` and
    ``scaled_s`` hold its two times and ``samples`` how many loop samples
    the rescaling used. With ``sampling`` off, nothing is sampled and the
    scaled time is the wall time.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.wall_s = self.scaled_s = 0.0
        self.samples = 0
        self._speeds: list[float] = []
        self._paused = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self._speeds.append(NOMINAL_S / took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self._paused += self._sample()

    def time(self, fn):
        if not self.sampling:
            start = time.perf_counter()
            try:
                return fn()
            finally:
                self.wall_s = self.scaled_s = time.perf_counter() - start
                self.samples = 0
        self._speeds, self._paused = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            self.wall_s = end - start - self._paused
            self.scaled_s = self.wall_s * sum(self._speeds) / len(self._speeds)
            self.samples = len(self._speeds)
