"""Correct the benchmark's times for the speed the host gives it.

The benchmark shares its host's cores with other work. A core runs
either at full speed or, while that other work runs beside it, about
1.6 times slower, and the two states alternate within fractions of a
second and in proportions that drift over minutes. So the same
repetition takes up to half as long again from one moment to the
next, and no count of repetitions in a run of fixed length averages
that out.

:class:`HostSpeed` therefore samples the speed while a repetition
runs: an interval timer interrupts it every :data:`INTERVAL_S`, and
the handler times :func:`probe`, a fixed loop that uses none of the
code under test. The mean probe time during a phase of the
repetition, over :data:`REFERENCE_S`, is that phase's slowdown, and
``run.py`` divides the phase's time by it: every end-to-end time is in
reference seconds, the time the phase would take on a core at full
speed. A change to the program moves the repetitions and not the
probe, so it shows in full; a change in the host's speed moves both,
and cancels. The probes cost about 1 % of the repetition's time and
add to it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: seconds between two probes
INTERVAL_S = 0.002
#: the probe's time, called from the timer during a repetition, on a
#: core at full speed: the lower of the two modes of that time (x86-64,
#: CPython 3.11; the upper mode is near 27e-6)
REFERENCE_S = 17.5e-6
#: weight, in probes, of the whole block's mean in a phase's slowdown
PRIOR_PROBES = 10


def probe() -> int:
    """A fixed arithmetic loop of a few tens of microseconds."""
    total = 0
    for i in range(400):
        total += i * i
    return total


class HostSpeed:
    """Samples the host's speed during a ``with`` block, by timer."""

    def __init__(self) -> None:
        #: (start, duration) of every probe
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown between the ``perf_counter`` instants ``start`` and ``end``.

        The mean time of the probes taken in that interval, pulled
        towards the whole block's mean with the weight of
        :data:`PRIOR_PROBES` probes, so that a phase of a few
        milliseconds is not judged on its two or three probes alone,
        over :data:`REFERENCE_S`.
        """
        block = statistics.mean(d for _, d in self.samples)
        inside = [d for t, d in self.samples if start <= t < end]
        mean = (sum(inside) + PRIOR_PROBES * block) / (len(inside) + PRIOR_PROBES)
        return mean / REFERENCE_S
