"""Machine speed, measured next to the work, for normalizing timings.

On the shared machine the benchmark was written on, the core's speed drifts
by up to 40% within minutes, so two runs of the same commit minutes apart can
disagree by more than any useful bound.  A fixed reference loop, timed on
the same core while the program runs, tracks that drift: in a trial over 21
`homology 3 --relative` ops the quartile spread of the wall times was 17.7%,
and 6.2% once each op was scaled by the reference loops timed during it.

``Probe`` times the loop from a SIGALRM handler every PERIOD_S seconds in the
process that runs the program, so the samples interleave with the program's
work.  ``Probe.normalize(start, end)`` turns a wall-clock interval into
seconds at the reference speed: the interval minus the probe's own time in
it, times REF_S over the mean loop time around it.  The loop allocates no
tracked objects, so it never triggers a garbage collection of the program's
heap.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

LOOPS = 24000
# The reference speed: the loop takes REF_S seconds (about this machine's
# typical speed, so normalized values read close to wall time).
REF_S = 0.0035
PERIOD_S = 0.25
# Intervals with fewer probe samples than this are scaled by the samples
# within WINDOW_S around their midpoint instead.
MIN_SAMPLES = 4
WINDOW_S = 2.0

_buf = [0] * 997


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time."""
    start = perf_counter()
    s = 0
    for i in range(LOOPS):
        s = (s + i * i) % 1000003
        _buf[i % 997] = s
    return perf_counter() - start


class Probe:
    """Reference-loop samples taken every PERIOD_S while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.costs.append(reference_loop())
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _costs(self, start: float, end: float) -> list[float]:
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        return self.costs[lo:hi]

    def probe_time(self, start: float, end: float) -> float:
        """Time the probe itself took inside the interval."""
        return sum(self._costs(start, end))

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean loop time during (or around) the interval."""
        around = self._costs(start, end)
        if len(around) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            around = self._costs(mid - WINDOW_S / 2, mid + WINDOW_S / 2)
        if not around:
            raise ValueError("no probe samples near the interval")
        return REF_S * len(around) / sum(around)

    def normalize(self, start: float, end: float) -> float:
        """Seconds the interval would take at the reference speed."""
        return (end - start - self.probe_time(start, end)) * self.factor(start, end)
