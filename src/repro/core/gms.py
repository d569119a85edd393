"""Generalized Multiprocessor Sharing — the idealized fluid algorithm (§2.2).

GMS is the multiprocessor analogue of GPS: threads are scheduled with
infinitesimally small quanta, ``p`` at a time, so that over any interval
in which two threads are continuously runnable with fixed instantaneous
weights,

.. math:: A_i(t_1,t_2) / A_j(t_1,t_2) \\ge \\phi_i / \\phi_j.  \\qquad (Eq. 2)

Summing Eq. 2 over runnable threads gives each thread service
``phi_i / sum_j phi_j * p * C * (t2 - t1)`` — proportionate allocation.

:class:`FluidGMS` integrates this fluid allocation exactly between
runnable-set changes. With *feasible* instantaneous weights (the §2.1
readjustment guarantees ``phi_i / sum phi <= 1/p``) the proportional
rate never exceeds a single processor's capacity ``C``; the ``min(C,.)``
cap below therefore only binds in the degenerate ``t <= p`` regime where
every thread simply holds a full processor.

The fluid allocation serves two roles:

- the reference against which the *surplus* of Eq. 3 is defined
  (``alpha_i = A_i - A_i^GMS``), used by the fairness metrics in
  :mod:`repro.analysis.fairness` and the auditor's ``bounded_lag``
  check, which replay a simulated run's runnable-set timeline through
  :func:`replay_trace`;
- an executable specification: :class:`FluidGMS` recomputes every
  rate from the §2.1 readjustment at each change (the lag curves of
  :mod:`repro.analysis.lag` and the ``gms-reference`` scheduler sample
  it directly), and tests hold :func:`replay_trace`, which integrates
  the same allocation by weight class, to it event by event.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain

from repro.core.weights import _SLACK, readjust
from repro.sim.tracing import ARRIVE, BLOCK, EXIT, WAKE, WEIGHT

__all__ = ["FluidGMS", "replay_trace"]

_INF = float("inf")


class FluidGMS:
    """Event-driven fluid integrator for GMS service.

    Threads are identified by arbitrary hashable keys (the simulator
    uses tids). All mutating calls take the absolute time at which the
    change happens; service is integrated piecewise between calls.
    """

    def __init__(self, cpus: int, capacity: float = 1.0) -> None:
        if cpus < 1:
            raise ValueError(f"need at least one CPU, got {cpus}")
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.p = cpus
        self.capacity = capacity
        self._weights: dict[int, float] = {}
        self._service: dict[int, float] = {}
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def rates(self) -> dict[int, float]:
        """Instantaneous service rate of each runnable thread.

        Rates are computed from the *readjusted* weights, so a thread
        whose raw weight is infeasible receives exactly one processor —
        the defining behaviour of GMS over feasible phis.
        """
        if not self._weights:
            return {}
        keys = list(self._weights)
        phis = readjust([self._weights[k] for k in keys], self.p)
        total = sum(phis)
        full = self.p * self.capacity
        return {
            k: min(self.capacity, full * phi / total)
            for k, phi in zip(keys, phis)
        }

    def advance_to(self, t: float) -> None:
        """Integrate service up to absolute time ``t``."""
        if t < self._now:
            raise ValueError(f"time went backwards: {t} < {self._now}")
        dt = t - self._now
        if dt > 0:
            for k, rate in self.rates().items():
                self._service[k] += rate * dt
        self._now = t

    def arrive(self, key: int, weight: float, at: float) -> None:
        """A thread becomes runnable (arrival or wakeup)."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self.advance_to(at)
        self._weights[key] = weight
        self._service.setdefault(key, 0.0)

    def depart(self, key: int, at: float) -> None:
        """A thread leaves the runnable set (block or exit)."""
        self.advance_to(at)
        self._weights.pop(key, None)

    def set_weight(self, key: int, weight: float, at: float) -> None:
        """A runnable thread's weight changes."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self.advance_to(at)
        if key in self._weights:
            self._weights[key] = weight

    def service_of(self, key: int) -> float:
        """Cumulative GMS service of a thread (0 if never seen)."""
        return self._service.get(key, 0.0)

    def services(self) -> dict[int, float]:
        """Snapshot of all cumulative services."""
        return dict(self._service)


def replay_trace(
    events,
    cpus: int,
    t_end: float,
    capacity: float = 1.0,
    assume_sorted: bool = False,
) -> dict[int, float]:
    """Replay a simulated run's runnable-set timeline through GMS.

    ``events`` is any iterable of ``(time, kind, tid, weight)`` rows —
    ``machine.trace.events`` (:class:`TraceEvent` records) or the
    allocation-free ``machine.trace.event_tuples()``; the result maps
    tid to the CPU service an ideal GMS machine would have granted by
    ``t_end``. Pass ``assume_sorted=True`` when the rows are already in
    time order (a recorded trace always is) to stream them without
    materializing and re-sorting.

    The replay works by weight class, as
    :class:`~repro.core.weights.ReadjustmentFrontier` does. §2.1 caps
    whole classes, heaviest first, and ties never split, so at every
    instant the capped threads are exactly those at or above one
    weight, the *cap*. A capped thread holds one processor; the others
    share the remaining ``p - k`` in proportion to their raw weights.
    With ``p`` or fewer runnable threads every thread holds a
    processor, so the cap sits below every weight.

    Each class carries one per-thread service integral: ``C * t + off``
    while capped, ``w * I + off`` while not, where
    ``I = ∫ (p - k) * C / W_light dt`` is the one running integral of
    the uncapped set. A thread's service over a span is its class's
    integral at exit minus its value at entry, so an arrival, block or
    exit is O(1) dict work. When the cap moves, or a class appears or
    empties while more than ``p`` threads are runnable, one pass over
    the ``C`` classes rewrites each offset so that the integral stays
    continuous, restarts ``I`` at 0 and re-sums the weights. The
    restart keeps every integral the size of a service, which is what
    holds the result to the spec when weights differ by many orders
    of magnitude. The cap is re-derived with the peel rule and the
    ``_SLACK`` tolerance of :func:`repro.core.weights.readjust`, one
    Eq. 1 test per class.

    The saving needs few distinct weights, ``C`` much smaller than the
    runnable count: the benchmark workloads and the paper's experiments
    use at most 7 (the ``server`` and ``flows`` families 3, Fig. 3's
    mix 7). A population in which every thread has its own weight pays
    the O(C) = O(n) pass on each class change while more than ``p``
    threads are runnable, where moving threads one by one through a
    heap would pay O(log n); no workload measures that case.

    :class:`FluidGMS` stays the executable specification. Driven event
    by event over the same timeline, it agrees with this replay to
    ``1e-9 * max(1, service)`` for every thread, with weights up to
    twelve orders of magnitude apart (``tests/test_gms_replay.py``).
    """
    p = cpus
    slack = _SLACK
    k_arrive, k_wake, k_weight = ARRIVE, WAKE, WEIGHT
    k_block, k_exit = BLOCK, EXIT
    weights: dict[int, float] = {}  # runnable tid -> weight
    enter: dict[int, float] = {}  # runnable tid -> class integral at entry
    service: dict[int, float] = {}
    count: dict[float, int] = {}  # class weight -> runnable members
    off: dict[float, float] = {}  # class weight -> offset of its integral
    classes: list[float] = []  # the class weights, ascending
    cap = 0.0  # classes at or above this weight are capped
    capped = 0  # runnable threads in capped classes
    total = 0.0  # runnable weight
    light = 0.0  # runnable weight below the cap
    level = 0.0  # I, since the last settle
    now = base = 0.0
    n = 0  # runnable threads
    sentinel = (t_end, None, 0, 0.0)  # final advance, applies nothing
    if assume_sorted:
        ordered = chain(events, (sentinel,))
    else:
        ordered = sorted(events, key=lambda ev: ev[0])
        ordered.append(sentinel)
    for time, kind, tid, weight in ordered:
        if time > t_end:
            time = t_end
            kind = None
        # -- integrate the interval since the previous event ----------
        if time > now:
            if capped < n:
                level += (p - capped) * capacity * (time - now) / light
            now = time
            base = capacity * now
        if kind is None:
            break
        # -- close the span of the thread the event hits --------------
        if kind == k_arrive or kind == k_wake or kind == k_weight:
            old = weights.get(tid)
            if old is None:
                if kind == k_weight:
                    continue  # weight change for a non-runnable thread
                if tid not in service:
                    service[tid] = 0.0
                n += 1
            elif old == weight:
                continue  # nothing GMS sees changes
        elif kind == k_block or kind == k_exit:
            old = weights.pop(tid, None)
            if old is None:
                continue
            n -= 1
            weight = None  # no span to open
        else:
            continue
        reclassed = False
        if old is not None:
            if old >= cap:
                service[tid] += base + off[old] - enter.pop(tid)
                capped -= 1
            else:
                service[tid] += old * level + off[old] - enter.pop(tid)
                light -= old
            total -= old
            members = count[old] - 1
            if members:
                count[old] = members
            else:
                del count[old], off[old]
                del classes[bisect_left(classes, old)]
                reclassed = True
        # -- open the span in the thread's (new) class ----------------
        if weight is not None:
            weights[tid] = weight
            total += weight
            if weight in count:
                count[weight] += 1
            else:
                count[weight] = 1
                insort(classes, weight)
                # a fresh class starts its integral at 0
                off[weight] = -base if weight >= cap else -weight * level
                reclassed = True
            if weight >= cap:
                enter[tid] = base + off[weight]
                capped += 1
            else:
                enter[tid] = weight * level + off[weight]
                light += weight
        # -- re-derive the cap ----------------------------------------
        if n <= p:
            # every thread holds a processor: nothing to settle unless
            # some class was uncapped
            if cap == 0.0:
                continue
            new_cap = 0.0
        else:
            # peel whole classes, heaviest first; none can violate
            # Eq. 1 with p - 1 threads capped, so k needs no bound
            new_cap = _INF
            k = 0
            s = total
            for w in reversed(classes):
                if w * (p - k) <= s * slack:
                    break
                new_cap = w
                members = count[w]
                k += members
                s -= w * members
            if new_cap == cap and not reclassed:
                continue
        # -- settle: keep each integral continuous across the move ----
        total = light = 0.0
        capped = 0
        for w in classes:
            members = count[w]
            total += w * members
            here = base + off[w] if w >= cap else w * level + off[w]
            if w >= new_cap:
                off[w] = here - base
                capped += members
            else:
                off[w] = here  # I restarts at 0
                light += w * members
        level = 0.0
        cap = new_cap
    # -- settle every still-open span at t_end ------------------------
    for tid, w in weights.items():
        here = base + off[w] if w >= cap else w * level + off[w]
        service[tid] += here - enter[tid]
    return service
