"""The host's speed, sampled while an untraced run is timed.

The machines this benchmark targets are shared, and their speed drifts by up
to half, in spells of seconds and over minutes.  The drift hits every
process at once, and CPU time as much as wall time, so neither a longer run
nor CPU time removes it.  A ``SpeedProbe`` follows it instead.  From a
``SIGALRM`` handler, in the benchmark's own thread, it times a fixed
reference kernel every ``PERIOD_S`` seconds.  The kernel is small numpy and
pure-Python work, like the library's.  A timed interval is then rescaled to
the reference speed: its wall time, less the time the handler took inside
it, times the host's mean speed during it, which is ``REFERENCE_S`` over the
harmonic mean of the kernel times sampled inside it.  An interval too short
to hold ``MIN_SAMPLES`` samples takes that many nearest to it.  The kernel
never calls the library, so a change to the library cannot move it.

The slow spells are short.  Over five finite-sample runs, the same
operation varied by 18% in wall time (the median coefficient of variation
over the operations).  Rescaled by samples taken every 10 ms, it varied by
4%; by every sixth of them, 7%; and taking in the samples up to 0.25 s
around the operation as well, 6%.  Hence a short kernel, sampled often,
and only inside the interval.

The handler runs between Python bytecodes, also while the benchmark waits
for a subprocess, so it samples the speed during CLI runs and the
fresh-interpreter imports too.  Timers are not inherited across ``fork``,
so the subprocesses themselves are never interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between kernel samples; the kernel takes about a twentieth of it.
PERIOD_S = 0.01
#: Fewest samples that rescale an interval.
MIN_SAMPLES = 4
#: Kernel time at the reference speed: a timing is reported as if the
#: kernel had taken this long while it ran.
REFERENCE_S = 5e-4

_MATRIX = np.random.default_rng(2102).standard_normal((24, 24))


def kernel() -> float:
    """A fixed mix of pure-Python and small-array numpy work."""
    total = 0.0
    for i in range(600):
        total += i * 0.5
    for _ in range(40):
        b = _MATRIX @ _MATRIX.T
        total += float(np.exp(-np.abs(b) / 100.0).sum(axis=1).max())
    return total


class SpeedProbe:
    """Samples the kernel's time while installed; one probe per process."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each sample, in perf_counter seconds
        self.kernel_s: list[float] = []
        self.handler_s = 0.0  # seconds spent in the handler so far

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        spent = perf_counter() - start
        self.times.append(start + spent / 2)
        self.kernel_s.append(spent)
        self.handler_s += perf_counter() - start

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> float:
        """The host's mean speed during ``[start, end]``, relative to the reference."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            hi = min(len(self.times), max(0, mid - MIN_SAMPLES // 2) + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return REFERENCE_S * statistics.fmean(1.0 / k for k in self.kernel_s[lo:hi])
