"""Differential tests: the by-class GMS replay against the fluid spec.

:func:`~repro.core.gms.replay_trace` integrates GMS service by weight
class, with one integral per class and a cap that moves only at
events. :class:`~repro.core.gms.FluidGMS`, driven event by event over
the same timeline, is the executable specification it must match.
Timelines are random runnable-set histories on 1-4 CPUs: every event
kind, weight events for blocked threads, second arrivals of runnable
threads, same-instant bursts, runnable counts crossing ``p``, classes
tied at the §2.1 boundary, a horizon before the last event, and rows
handed over out of order.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gms import FluidGMS, replay_trace
from repro.sim.tracing import ARRIVE, BLOCK, EXIT, WAKE, WEIGHT

#: arrivals twice as likely as any other kind, so the runnable set
#: grows past p often enough to move the cap
KINDS = (ARRIVE, ARRIVE, WAKE, BLOCK, EXIT, WEIGHT)
#: gaps between events; the zeros make same-instant bursts
GAPS = st.sampled_from((0.0, 0.0, 0.25, 1.0)) | st.floats(0.0, 2.0)


def spec_services(events, cpus, t_end, capacity=1.0):
    """Services by tid from driving FluidGMS over the rows in time order."""
    gms = FluidGMS(cpus, capacity)
    for time, kind, tid, weight in sorted(events, key=lambda ev: ev[0]):
        if time > t_end:
            break
        if kind in (ARRIVE, WAKE):
            gms.arrive(tid, weight, time)
        elif kind in (BLOCK, EXIT):
            gms.depart(tid, time)
        else:
            gms.set_weight(tid, weight, time)
    gms.advance_to(t_end)
    return gms.services()


def worst_error(events, cpus, t_end, shuffled, capacity=1.0):
    """Largest |replay - spec| / max(1, spec) over every thread."""
    if shuffled:
        got = replay_trace(events, cpus, t_end, capacity)
    else:
        rows = iter(events)
        got = replay_trace(rows, cpus, t_end, capacity, assume_sorted=True)
    want = spec_services(events, cpus, t_end, capacity)
    assert got.keys() == want.keys()
    return max(
        (abs(got[tid] - w) / max(1.0, w) for tid, w in want.items()),
        default=0.0,
    )


@st.composite
def timelines(draw, weight):
    """``worst_error`` arguments, over weights drawn by ``weight``.

    Each timeline draws a pool of one to eight weights and every event
    picks one, so classes range from one thread each to all threads.
    """
    cpus = draw(st.integers(1, 4))
    threads = draw(st.integers(1, 8))
    pool = draw(st.lists(weight, min_size=1, max_size=8))
    steps = draw(
        st.lists(
            st.tuples(
                GAPS,
                st.sampled_from(KINDS),
                st.integers(0, threads - 1),
                st.sampled_from(pool),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = []
    now = 0.0
    for gap, kind, tid, w in steps:
        now += gap
        events.append((now, kind, tid, w))
    t_end = draw(st.floats(0.0, now + 2.0))
    shuffled = draw(st.booleans())
    if shuffled:
        events = draw(st.permutations(events))
    capacity = draw(st.sampled_from((1.0, 0.5, 3.0)))
    return events, cpus, t_end, shuffled, capacity


CLASS_WEIGHTS = st.sampled_from((1.0, 4.0, 10.0))


def log_uniform(decades):
    """Weights log-uniform over [10**-decades, 10**decades]."""
    return st.floats(-decades, decades).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(timelines(CLASS_WEIGHTS))
def test_matches_spec_on_the_server_weight_classes(timeline):
    assert worst_error(*timeline) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(timelines(log_uniform(3)))
def test_matches_spec_over_six_decades_of_weight(timeline):
    assert worst_error(*timeline) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(timelines(log_uniform(6)))
def test_matches_spec_over_twelve_decades_of_weight(timeline):
    assert worst_error(*timeline) <= 1e-9


@pytest.mark.parametrize(
    "cpus, weights",
    [
        (2, (2.0, 1.0, 1.0)),  # the heaviest asks for exactly 1/p
        (3, (2.0, 2.0, 1.0, 1.0)),  # a tied class exactly at 1/p
        (2, (4.0, 1.0, 1.0, 1.0, 1.0)),
        (3, (10.0, 10.0, 1.0, 1.0)),  # a tied class capped whole
        (4, (10.0, 10.0, 10.0, 1.0, 1.0)),
    ],
    ids=["one-at-bound", "tie-at-bound", "one-over-four", "tie-capped", "three-capped"],
)
def test_matches_spec_at_the_feasibility_boundary(cpus, weights):
    # Every thread arrives at 0, then each leaves and comes back in
    # turn, so the cap is re-derived around the boundary both ways.
    events = [(0.0, ARRIVE, tid, w) for tid, w in enumerate(weights)]
    now = 0.0
    for tid, w in enumerate(weights):
        events.append((now + 0.5, BLOCK, tid, w))
        events.append((now + 1.0, WAKE, tid, w))
        now += 1.0
    events.append((now + 0.5, WEIGHT, 0, weights[-1]))
    assert worst_error(events, cpus, now + 2.0, False) <= 1e-9


@pytest.mark.parametrize(
    "events, t_end",
    [
        # the heavy class leaves the uncapped sum: re-summing the
        # classes, not subtracting 1e6 from 1e6 + 2e-6, keeps the
        # light threads' rates exact
        (
            [
                (0.0, ARRIVE, 0, 1e6),
                (0.0, ARRIVE, 1, 1e-6),
                (0.0, ARRIVE, 2, 1e-6),
                (1.0, EXIT, 0, 1e6),
            ],
            11.0,
        ),
        # the heavy class arrives after a long light phase, when the
        # uncapped integral has grown to 5e6: restarting it at 0 keeps
        # the heavy thread's 0.37 s of service exact
        (
            [
                (0.0, ARRIVE, 1, 1e-6),
                (0.0, ARRIVE, 2, 1e-6),
                (10.0, ARRIVE, 0, 1e6),
            ],
            10.37,
        ),
    ],
    ids=["heavy-leaves", "heavy-arrives-late"],
)
def test_twelve_decades_apart_on_one_cpu(events, t_end):
    assert worst_error(events, 1, t_end, False) <= 1e-9


def test_a_long_replay_starts_no_collection():
    # The audit replays every recorded run at finalize with collection
    # on, so the replay must not allocate a GC-tracked object per
    # event: over 100,000 events on 4 CPUs it starts no collection at
    # all. Most threads leave within 55 ms, so the runnable set
    # crosses p and the weight-10 threads are capped and released,
    # but one in ten stays 50 s, so some 500 threads pile up too.
    weights = (1.0, 4.0, 10.0, 1.0, 1.0)
    events = []
    for i in range(50_000):
        w = weights[i % 5]
        stay = 50.0 if i % 10 == 9 else 0.025 + 0.01 * (i % 4)
        events.append((i * 0.01, ARRIVE, i, w))
        events.append((i * 0.01 + stay, EXIT, i, w))
    events.sort(key=lambda ev: ev[0])
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        replay_trace(iter(events), 4, 600.0, assume_sorted=True)
    finally:
        gc.callbacks.remove(count)
    assert started == []
