"""Machine speed, sampled alongside a workload, and time at nominal speed.

A shared host can run the same code up to 1.7x slower in episodes that last
from one to tens of seconds, so a run's wall time partly measures the
neighbours.  ``reference_loop`` is fixed work that slows with the host; the
time it takes at a moment, against ``REF_NOMINAL_S``, gives the host's
speed then.  ``Speedometer`` samples it while a workload runs and rescales
the workload's time to nominal speed; ``nominal_factor`` does the same for
a moment's worth of set-up.  The workload's own work is not rescaled away:
twice the work still reads twice the time.
"""

import math
import signal
import time

import numpy as np

#: interval between speed samples while an untraced workload runs
SPEED_PERIOD_S = 0.25
#: time of one ``reference_loop`` on an idle 2.1 GHz Xeon vCPU (Python
#: 3.11, numpy 2.4): the nominal speed that times are rescaled to
REF_NOMINAL_S = 0.0045

REF_ARRAY = np.sort(np.random.default_rng(12345).uniform(1.0, 1e4, 2048))


def reference_loop() -> float:
    """Fixed work, a few milliseconds long, in the proportions the library's
    hot paths mix them: interpreted float arithmetic, ``math`` calls on
    numpy scalars, exact sums of numpy arrays and whole-array numpy calls.
    """
    acc = 0.0
    for _ in range(4):
        for i in range(4000):
            acc += (i % 7) * 0.5 - acc * 1e-9
        acc += math.fsum(math.log(x) for x in REF_ARRAY)
        for _ in range(4):
            acc += math.fsum(np.power(REF_ARRAY, 1.5))
            acc += float(np.cumsum(REF_ARRAY)[-1])
    return acc


class Speedometer:
    """Samples the machine's speed while a workload runs.

    A wall-clock timer interrupts the workload every ``SPEED_PERIOD_S`` and
    times ``reference_loop``; one sample is also taken just before and just
    after.  Each stretch of workload time between two samples is rescaled by
    ``REF_NOMINAL_S`` over the mean of those two samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter()))

    def install(self) -> None:
        for _ in range(3):      # warm-up
            reference_loop()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def sampled(self, t0: float, t1: float) -> float:
        """Seconds of speed samples taken within [t0, t1]."""
        return sum(b - a for a, b in self.samples if t0 <= a and b <= t1)

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(workload seconds in [t0, t1], the same at nominal speed)."""
        inner = self.samples[1:-1]
        starts = [t0] + [end for _, end in inner]
        ends = [start for start, _ in inner] + [t1]
        refs = [end - start for start, end in self.samples]
        work = norm = 0.0
        for i, (a, b) in enumerate(zip(starts, ends)):
            work += b - a
            norm += (b - a) * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])
        return work, norm


def nominal_factor() -> float:
    """REF_NOMINAL_S over the reference loop's time at this moment."""
    for _ in range(3):      # warm-up
        reference_loop()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return REF_NOMINAL_S / sorted(times)[2]
