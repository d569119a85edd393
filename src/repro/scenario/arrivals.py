"""Pluggable arrival-process registry for generated task populations.

An *arrival process* turns a seeded PRNG into a monotone stream of
absolute arrival times; :func:`repro.scenario.population.generated_tasks`
pairs it with a demand distribution (:mod:`repro.scenario.demands`) to
draw an open-arrival task population as plain :class:`TaskSpec` data.
Processes are registered by name in :data:`ARRIVALS`, a
:class:`~repro.registry.Registry` like every other name table, so
scenario config files select them as data::

    streams:
      - n: 400
        seed: 7
        arrival: {kind: flash-crowd, rate: 20.0, spike_at: 10.0,
                  spike_duration: 5.0, spike_factor: 10.0}
        demand: {kind: exponential, mean: 0.05}

Built-in processes:

============  ========================================================
poisson       homogeneous Poisson stream (exponential gaps)
bursty        two-state MMPP: bursts of high rate between lulls
diurnal       sinusoidal load curve (peak/trough over a period)
flash-crowd   baseline rate with one multiplicative spike window
trace         explicit, pre-recorded arrival instants
============  ========================================================

Every process draws exclusively from the ``rng`` handed to
:meth:`ArrivalProcess.times`, so a (process, seed) pair is bit-for-bit
reproducible — the property the goldens and checkpoint fingerprints
rely on. Downstream projects add processes the same way the built-ins
do: decorate a documented class or factory returning an object with a
``times(rng)`` generator method.
"""

from __future__ import annotations

import math
from typing import Iterator, Protocol, Sequence

from random import Random

from repro.registry import Registry

__all__ = [
    "ArrivalProcess",
    "ARRIVALS",
    "register_arrival",
    "make_arrival",
    "arrival_names",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "TraceArrivals",
]


class ArrivalProcess(Protocol):
    """What the population generator needs: a stream of arrival times."""

    def times(self, rng: Random) -> Iterator[float]:
        """Yield strictly increasing absolute arrival times.

        Draws only from ``rng``; may be infinite (the caller takes the
        first ``n``) or finite (:class:`TraceArrivals`).
        """
        ...


#: name -> arrival-process class or factory taking keyword parameters
ARRIVALS = Registry("arrival process")
register_arrival = ARRIVALS.register
make_arrival = ARRIVALS.make


def arrival_names() -> list[str]:
    """All registered arrival-process names, sorted."""
    return sorted(ARRIVALS)


# ----------------------------------------------------------------------
# built-in processes
# ----------------------------------------------------------------------


@register_arrival("poisson")
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per second.

    The open-system baseline: independent exponential inter-arrival
    gaps. ``server_scenario`` uses this with
    ``rate = load * cpus / mean_service``.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate

    def times(self, rng: Random) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            yield t


@register_arrival("bursty")
class BurstyArrivals:
    """Two-state MMPP: correlated bursts of ``rate_hi`` between lulls.

    A continuous-time Markov chain alternates between a *burst* state
    (Poisson at ``rate_hi``, mean dwell ``mean_burst``) and a *lull*
    (``rate_lo``, mean dwell ``mean_lull``; 0 turns the lull silent —
    the interrupted-Poisson special case). The workload the open
    Poisson stream can't express: arrival clumps that pile the run
    queue up faster than the steady-state rate suggests.
    """

    def __init__(
        self,
        rate_hi: float,
        rate_lo: float,
        mean_burst: float,
        mean_lull: float,
        start_in_burst: bool = False,
    ) -> None:
        if rate_hi <= 0:
            raise ValueError(f"rate_hi must be > 0, got {rate_hi}")
        if rate_lo < 0:
            raise ValueError(f"rate_lo must be >= 0, got {rate_lo}")
        if mean_burst <= 0:
            raise ValueError(f"mean_burst must be > 0, got {mean_burst}")
        if mean_lull <= 0:
            raise ValueError(f"mean_lull must be > 0, got {mean_lull}")
        self.rate_hi = rate_hi
        self.rate_lo = rate_lo
        self.mean_burst = mean_burst
        self.mean_lull = mean_lull
        self.start_in_burst = start_in_burst

    def times(self, rng: Random) -> Iterator[float]:
        t = 0.0
        burst = self.start_in_burst
        dwell = self.mean_burst if burst else self.mean_lull
        state_end = t + rng.expovariate(1.0 / dwell)
        while True:
            rate = self.rate_hi if burst else self.rate_lo
            # A silent state contributes no arrivals; jump to its end.
            gap = rng.expovariate(rate) if rate > 0 else math.inf
            if t + gap < state_end:
                t += gap
                yield t
            else:
                # Exponential gaps are memoryless, so discarding the
                # in-flight gap at a state switch keeps the process
                # exact (no bias toward either state's rate).
                t = state_end
                burst = not burst
                dwell = self.mean_burst if burst else self.mean_lull
                state_end = t + rng.expovariate(1.0 / dwell)


class _ThinnedArrivals:
    """Non-homogeneous Poisson base via Lewis-Shedler thinning.

    Subclasses provide ``peak_rate`` (an upper bound on the
    instantaneous rate) and :meth:`rate_at`; candidates drawn at the
    peak rate are accepted with probability ``rate_at(t) / peak_rate``.
    """

    peak_rate: float

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def times(self, rng: Random) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.expovariate(self.peak_rate)
            if rng.random() * self.peak_rate <= self.rate_at(t):
                yield t


@register_arrival("diurnal")
class DiurnalArrivals(_ThinnedArrivals):
    """Sinusoidal diurnal load curve around a mean ``rate``.

    Instantaneous rate
    ``rate * (1 + amplitude * cos(2*pi*(t - peak_at) / period))`` — the
    classic day/night demand cycle, compressed to whatever ``period``
    the scenario wants to simulate. ``amplitude`` in [0, 1] sets the
    peak-to-trough swing (1.0 idles the trough completely).
    """

    def __init__(
        self,
        rate: float,
        period: float,
        amplitude: float = 0.8,
        peak_at: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        self.rate = rate
        self.period = period
        self.amplitude = amplitude
        self.peak_at = peak_at
        self.peak_rate = rate * (1.0 + amplitude)

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * (t - self.peak_at) / self.period
        return self.rate * (1.0 + self.amplitude * math.cos(phase))


@register_arrival("flash-crowd")
class FlashCrowdArrivals(_ThinnedArrivals):
    """Baseline Poisson rate with one multiplicative spike window.

    Rate is ``rate`` everywhere except
    ``[spike_at, spike_at + spike_duration)``, where it jumps to
    ``rate * spike_factor`` — the slashdot/flash-crowd shape whose
    transient backlog proportional-share studies care about.
    """

    def __init__(
        self,
        rate: float,
        spike_at: float,
        spike_duration: float,
        spike_factor: float,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if spike_at < 0:
            raise ValueError(f"spike_at must be >= 0, got {spike_at}")
        if spike_duration <= 0:
            raise ValueError(
                f"spike_duration must be > 0, got {spike_duration}"
            )
        if spike_factor < 1:
            raise ValueError(f"spike_factor must be >= 1, got {spike_factor}")
        self.rate = rate
        self.spike_at = spike_at
        self.spike_duration = spike_duration
        self.spike_factor = spike_factor
        self.peak_rate = rate * spike_factor

    def rate_at(self, t: float) -> float:
        in_spike = self.spike_at <= t < self.spike_at + self.spike_duration
        return self.rate * (self.spike_factor if in_spike else 1.0)


@register_arrival("trace")
class TraceArrivals:
    """Deterministic, pre-recorded arrival instants.

    Replays an explicit nondecreasing list of times — measured traces,
    hand-built corner cases, or adversarial patterns no stochastic
    process produces. Draws nothing from the RNG; the population
    generator still uses its stream for demands and weight classes.
    """

    def __init__(self, times: Sequence[float]) -> None:
        values = tuple(float(t) for t in times)
        if not values:
            raise ValueError("trace needs at least one arrival time")
        if values[0] < 0:
            raise ValueError(f"trace times must be >= 0, got {values[0]}")
        for a, b in zip(values, values[1:]):
            if b < a:
                raise ValueError(
                    f"trace times must be nondecreasing, got {a} before {b}"
                )
        self.trace = values

    def times(self, rng: Random) -> Iterator[float]:
        return iter(self.trace)
