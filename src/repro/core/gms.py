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

The fluid oracle serves two roles:

- the reference against which the *surplus* of Eq. 3 is defined
  (``alpha_i = A_i - A_i^GMS``), used by the fairness metrics in
  :mod:`repro.analysis.fairness`;
- an executable specification: tests replay a simulated run's
  runnable-set timeline through the oracle and check that SFS service
  tracks it to within one quantum per thread.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import chain

from repro.core.weights import _REL_TOL, readjust
from repro.sim.tracing import ARRIVE, BLOCK, EXIT, WAKE, WEIGHT

__all__ = ["FluidGMS", "replay_trace"]


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

    Incremental form of driving :class:`FluidGMS` event by event
    (which stays as the executable specification — the two agree to
    float rounding). At every instant GMS partitions the runnable set
    into *heavy* threads — the §2.1 readjustment caps them at exactly
    one processor — and *light* threads sharing the remaining
    ``p - k`` processors in proportion to their raw weights. Both
    groups admit O(1)-per-event accounting: a heavy thread's service
    over a span is ``C * (t2 - t1)`` (a timestamp per thread), and a
    light thread's is ``w * (I(t2) - I(t1))`` for the single running
    integral ``I = ∫ (p - k) * C / W_light dt``. Per-thread work
    happens only when a thread crosses the heavy/light boundary, which
    the event loop re-derives with the same peel rule (and the same
    ``_REL_TOL`` tolerance) as :func:`repro.core.weights.readjust` —
    at most ``p - 1`` threads are ever heavy when more than ``p`` are
    runnable, and *all* are when ``p`` or fewer are. The peel
    merge-walks the (tiny, sorted) current heavy set against the top
    of a max-weight heap holding only the light threads, so the steady
    state — membership unchanged — costs a few comparisons and no heap
    mutation at all.

    This runs inside the ``--audit`` overhead budget, hence the
    hand-inlined event loop (no per-event helper calls on the common
    path).
    """
    p = cpus
    limit = p - 1  # max heavy threads when more than p are runnable
    tol = 1.0 + _REL_TOL  # the readjust feasibility tolerance, inlined
    weights: dict[int, float] = {}
    heavy: dict[int, float] = {}  # tid -> span start (holds one CPU)
    hsorted: list[tuple[float, int]] = []  # heavy as sorted (-w, tid)
    light_enter: dict[int, float] = {}  # tid -> I_L at span start
    service: dict[int, float] = {}
    #: light threads only, as (-weight, tid) with lazy deletion; heavy
    #: threads live in hsorted instead, so steady-state membership
    #: passes never mutate the heap
    heap: list[tuple[float, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    k_arrive, k_wake, k_weight = ARRIVE, WAKE, WEIGHT
    k_block, k_exit = BLOCK, EXIT
    total = 0.0
    light_w = 0.0  # sum of non-heavy runnable weights
    i_light = 0.0  # ∫ (p - |heavy|) * C / light_w dt
    now = 0.0
    sentinel = (t_end, None, 0, 0.0)  # final advance, applies nothing
    if assume_sorted:
        ordered = chain(events, (sentinel,))
    else:
        ordered = sorted(events, key=lambda ev: ev[0])
        ordered.append(sentinel)
    for time, kind, tid, weight in ordered:
        over_end = time > t_end
        if over_end:
            time = t_end
        # -- integrate the interval since the previous event ----------
        dt = time - now
        if dt > 0.0 and light_enter and light_w > 0.0:
            # light_enter (not light_w) is the emptiness test: the
            # incremental weight sum can retain float dust after the
            # last light thread leaves, and integrating against dust
            # would wreck i_light's precision for later spans.
            i_light += (p - len(heavy)) * capacity * dt / light_w
        now = time
        if over_end or kind is None:
            break
        # -- apply the event (closing the span of the thread it hits) --
        if kind == k_arrive or kind == k_wake or kind == k_weight:
            old = weights.get(tid)
            if old is not None:
                t0 = heavy.pop(tid, None)
                if t0 is not None:
                    service[tid] += capacity * (now - t0)
                    hsorted.remove((-old, tid))
                else:
                    service[tid] += old * (i_light - light_enter.pop(tid))
                    light_w -= old
                total -= old
            elif kind == k_weight:
                continue  # weight change for a non-runnable thread
            elif tid not in service:
                service[tid] = 0.0
            weights[tid] = weight
            total += weight
            if len(weights) <= p:
                # Readjustment equalizes every weight in this regime:
                # the thread holds a full processor from the start, and
                # every peer already does (the loop invariant), so the
                # membership pass below would be a no-op — skip it.
                heavy[tid] = now
                insort(hsorted, (-weight, tid))
                continue
            # (re)open as light; the membership pass below may promote
            light_w += weight
            light_enter[tid] = i_light
            heappush(heap, (-weight, tid))
        elif kind == k_block or kind == k_exit:
            old = weights.pop(tid, None)
            if old is None:
                continue
            t0 = heavy.pop(tid, None)
            if t0 is not None:
                service[tid] += capacity * (now - t0)
                hsorted.remove((-old, tid))
            else:
                service[tid] += old * (i_light - light_enter.pop(tid))
                light_w -= old
            total -= old
        else:
            continue
        # -- re-derive the heavy set (changes only at events) ---------
        n = len(weights)
        if n <= p:
            # Readjustment equalizes every weight: each thread holds a
            # full processor. Promote any light thread.
            if len(heavy) != n:
                for t2, w2 in weights.items():
                    if t2 not in heavy:
                        service[t2] += w2 * (i_light - light_enter.pop(t2))
                        light_w -= w2
                        heavy[t2] = now
                        insort(hsorted, (-w2, t2))
            continue
        # Drop heap entries that are stale (weight changed / departed)
        # or shadowed (their thread was promoted to heavy).
        while heap:
            negw, t2 = heap[0]
            if weights.get(t2) != -negw or t2 in heavy:
                heappop(heap)
            else:
                break
        if not hsorted and (not heap or -heap[0][0] * p <= total * tol):
            continue  # no heavy and the top weight is feasible
        # Merge-walk the current heavy set and the heap top in
        # (-weight, tid) order, peeling infeasible weights exactly as
        # weights.readjust does (ties never split: if the first of two
        # equal weights peels, so does the second). Only an actual
        # promotion or demotion touches the heap.
        s = total
        k = 0
        keep = 0  # prefix of hsorted that is (still) heavy
        nh = len(hsorted)
        while k < limit:
            while heap:
                negw, t2 = heap[0]
                if weights.get(t2) != -negw or t2 in heavy:
                    heappop(heap)
                else:
                    break
            hcand = hsorted[keep] if keep < nh else None
            lcand = heap[0] if heap else None
            if hcand is not None and (lcand is None or hcand <= lcand):
                w2 = -hcand[0]
                if w2 * (p - k) <= s * tol:
                    break
                keep += 1
            elif lcand is not None:
                w2 = -lcand[0]
                if w2 * (p - k) <= s * tol:
                    break
                # promote: a light thread became infeasible. lcand
                # sorts between the kept prefix and hsorted[keep], so
                # insort lands it at index `keep` and the walk resumes
                # unperturbed. Entering `heavy` here also makes the
                # lazy cleanup above drop any duplicate heap entry for
                # the same tid.
                heappop(heap)
                t2 = lcand[1]
                service[t2] += w2 * (i_light - light_enter.pop(t2))
                light_w -= w2
                heavy[t2] = now
                insort(hsorted, lcand)
                keep += 1
                nh += 1
            else:
                break
            s -= w2
            k += 1
        if keep < nh:
            # hsorted[keep:] became feasible — demote to light
            for entry in hsorted[keep:]:
                negw, t2 = entry
                service[t2] += capacity * (now - heavy.pop(t2))
                light_enter[t2] = i_light
                light_w -= negw
                heappush(heap, entry)
            del hsorted[keep:]
    # -- settle every still-open span at t_end ------------------------
    for tid, t0 in heavy.items():
        service[tid] += capacity * (now - t0)
    for tid, enter in light_enter.items():
        service[tid] += weights[tid] * (i_light - enter)
    return service
