"""The host's speed, sampled in the measuring thread, and times scaled by it.

On the small shared virtual machines this benchmark runs on, the processor's
speed changes by up to 2x, for seconds or for minutes at a time, and the
change slows pure-Python, numpy and SuperLU code, though not all by the
same amount.  No run is long enough to average a slow minute out, so the
times a run reports on ``--trace 0`` are scaled to a reference host.

The speed is read with a probe: a fixed pure-Python loop, timed on the
thread's CPU clock so that waiting for the processor does not count.  While
a :class:`SpeedProbe` runs, it probes every ``period_s`` in the main thread,
between bytecodes (a ``SIGALRM`` handler).  Intervals timed with
:meth:`SpeedProbe.timed` leave out the probes that ran inside them.

A run scales all its times by one factor: the probe's time on the reference
host over the median probe of the run.  One probe is noisy, and over a
fraction of a second the program's speed follows it only loosely, but the
median over a run follows the host's slow and fast phases.  On a 2-CPU
virtual machine whose speed moved by up to 2x within minutes, scaling cut
the spread of build times between repetitions from 0.20 to 0.08 of their
median on the sweep-bound workload and from 0.07 to 0.03 on the
solve-bound one, and that of online latency between runs from 0.27 to
0.16.  The reference host is one on which the probe takes 1 ms, about what
it took on that machine.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, thread_time

#: Steps of the probe loop.
PROBE_STEPS = 10_000

#: Probe time, in seconds, on the reference host.
REFERENCE_PROBE_S = 1e-3

#: Seconds between probes while a :class:`SpeedProbe` runs.
PERIOD_S = 0.05


@dataclass(frozen=True)
class Sample:
    """One probe: its start and end on ``perf_counter`` and its CPU time."""

    start: float
    end: float
    cpu_s: float


def probe() -> Sample:
    """Run the probe loop once."""
    start = perf_counter()
    cpu = thread_time()
    total = 0
    for step in range(PROBE_STEPS):
        total += step * step
    cpu = thread_time() - cpu
    return Sample(start, perf_counter(), cpu)


@dataclass(frozen=True)
class Interval:
    """A timed interval: its wall time and the part of it the probes took."""

    wall_s: float
    busy_s: float

    @property
    def raw_s(self) -> float:
        """Wall time less the probes."""
        return self.wall_s - self.busy_s


def interval(samples, start: float, end: float) -> Interval:
    """The :class:`Interval` from ``start`` to ``end`` given the samples taken."""
    busy = sum(s.end - s.start for s in samples if start <= s.start and s.end <= end)
    return Interval(end - start, busy)


def reference_factor(cpu_times) -> float:
    """Factor that scales times measured alongside these probes to the reference host."""
    return REFERENCE_PROBE_S / statistics.median(cpu_times)


class SpeedProbe:
    """Samples the host's speed in the main thread between :meth:`start` and
    :meth:`stop`.

    With ``period_s=0`` it never probes.  Only one may run at a time.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list = []
        self._running = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def start(self):
        """Probe every ``period_s`` from now on."""
        if self.period_s > 0 and not self._running:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
            self._running = True

    def stop(self):
        """Stop probing; safe to call when not started."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def since(self, start: float) -> Interval:
        """The interval from ``start`` (a ``perf_counter`` value) to now."""
        return interval(self.samples, start, perf_counter())

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` and return its result and the :class:`Interval` it took."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        return result, self.since(start)

    def cpu_times(self) -> list:
        """CPU time of every probe so far."""
        return [s.cpu_s for s in self.samples]
