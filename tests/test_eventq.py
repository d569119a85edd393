"""Equivalence tests pinning the calendar queue to the heap oracle.

The engine's one ordering guarantee — events fire in ascending
``(time, seq)`` order — must hold identically across every queue and
engine build: the reference binary heap defined here, the pure-Python
calendar queue, and the compiled C engine. These tests drive all of
them with the same randomized schedules (same-timestamp bursts,
cancellations, reentrant scheduling from callbacks) and require
bit-identical fire logs, clocks and counters. A divergence here means
simulations would stop being reproducible across builds, which is the
repository's ground rule.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import PyEngine
from repro.sim.eventq import CalendarEventQueue

try:
    from repro.sim import _engine as compiled_engine
except ImportError:  # pragma: no cover - pure-python environments
    compiled_engine = None

needs_compiled = pytest.mark.skipif(
    compiled_engine is None,
    reason="repro.sim._engine extension not built "
    "(python setup.py build_ext --inplace)",
)


# ----------------------------------------------------------------------
# the oracle: a plain binary heap
# ----------------------------------------------------------------------


class HeapEventQueue:
    """Reference binary-heap event queue (``(time, seq, handle)`` tuples).

    The engine's original structure, kept as the oracle the calendar
    queue is checked against. ``seq`` is unique, so tuple comparison
    never falls through to the handle and every sift compares in C.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def push(self, handle) -> None:
        """Queue ``handle`` (reads its ``time`` and ``seq``)."""
        heappush(self._heap, (handle.time, handle.seq, handle))

    def pop_due(self, bound: float):
        """Next live handle with ``time <= bound``, or None.

        Cancelled handles encountered on the way are dropped.
        """
        heap = self._heap
        while heap:
            when, _, head = heap[0]
            if head.cancelled:
                heappop(heap)
                continue
            if when > bound:
                return None
            heappop(heap)
            return head
        return None

    def pop_batch_due(self, bound: float):
        """All handles sharing the earliest due timestamp, or None.

        Pops the same-time run off the heap one tuple at a time; the
        batch may contain cancelled handles but always at least one
        live one.
        """
        first = self.pop_due(bound)
        if first is None:
            return None
        batch = [first]
        heap = self._heap
        when = first.time
        while heap and heap[0][0] == when:
            batch.append(heappop(heap)[2])
        return batch

    def requeue(self, handles, time: float) -> None:
        """Put back the unfired tail of a popped batch (exception path)."""
        for handle in handles:
            heappush(self._heap, (handle.time, handle.seq, handle))


#: the pure engine's queue and its oracle, by name
QUEUES = {"calendar": CalendarEventQueue, "heap": HeapEventQueue}


def py_engine(kind: str) -> PyEngine:
    """A fresh pure engine running on the ``kind`` queue."""
    engine = PyEngine()
    engine._queue = QUEUES[kind]()
    return engine


def all_engines() -> list:
    """One fresh engine per queue and build available here."""
    engines = [py_engine("calendar"), py_engine("heap")]
    if compiled_engine is not None:
        engines.append(compiled_engine.Engine())
    return engines


# ----------------------------------------------------------------------
# scripted engine driver: one program, many engines
# ----------------------------------------------------------------------

#: a program is a list of ops executed in order against a fresh engine;
#: times are offsets *from the current clock* so every op stays legal.
#: ("at", dt, cancel_idx_or_None)  schedule at now+dt, maybe cancelling
#:                                 the handle scheduled by op cancel_idx
#: ("run_until", dt)               advance the clock by dt
#: ("step",)                       fire a single event
#: ("run", max_or_None)            drain (optionally bounded)
_op = st.one_of(
    st.tuples(
        st.just("at"),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16),
        st.none() | st.integers(min_value=0, max_value=30),
    ),
    st.tuples(
        st.just("run_until"),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16),
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.none() | st.integers(0, 8)),
)

programs = st.lists(_op, min_size=1, max_size=40)


def execute(engine, program):
    """Run ``program`` against ``engine``; return the observable log.

    Fired events record ``(sim-time, event-tag)``; after every op the
    clock and both counters are appended too, so any divergence in
    *when* state changes — not just in the final state — fails.
    """
    log: list = []
    handles: dict[int, object] = {}

    def fire(tag):
        log.append(("fire", engine.now, tag))
        # reentrancy: every third event schedules a same-time follow-up,
        # landing in a fresh bucket that must fire in the same pass
        if tag % 3 == 0 and tag < 900:
            handles[1000 + tag] = engine.schedule_at(
                engine.now, fire, 1000 + tag
            )

    for idx, op in enumerate(program):
        if op[0] == "at":
            _, dt, cancel_idx = op
            handles[idx] = engine.schedule_at(engine.now + dt, fire, idx)
            if cancel_idx is not None and cancel_idx in handles:
                handles[cancel_idx].cancel()
        elif op[0] == "run_until":
            engine.run_until(engine.now + op[1])
        elif op[0] == "step":
            log.append(("stepped", engine.step()))
        else:
            log.append(("ran", engine.run(op[1])))
        log.append(("state", engine.now, engine.pending, engine.events_fired))
    log.append(("final", engine.run(), engine.now, engine.events_fired))
    return log


class TestQueueEquivalence:
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_calendar_matches_heap(self, program):
        calendar = execute(py_engine("calendar"), program)
        heap = execute(py_engine("heap"), program)
        assert calendar == heap

    @needs_compiled
    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_pure(self, program):
        pure = execute(PyEngine(), program)
        c = execute(compiled_engine.Engine(), program)
        assert c == pure

    def test_same_timestamp_burst_fires_in_seq_order(self):
        """A thousand events at one timestamp drain as one batch, FIFO."""
        for engine in all_engines():
            fired = []
            for i in range(1000):
                engine.schedule_at(1.0, fired.append, i)
            engine.run_until(1.0)
            assert fired == list(range(1000))
            assert engine.now == 1.0
            assert engine.pending == 0

    def test_interleaved_cancellation_burst(self):
        """Cancel every other event in a burst; survivors keep order."""
        for engine in all_engines():
            fired = []
            handles = [
                engine.schedule_at(2.0, fired.append, i) for i in range(100)
            ]
            for h in handles[::2]:
                h.cancel()
            assert engine.pending == 50
            engine.run()
            assert fired == list(range(1, 100, 2))
            # cancelling an already-fired handle must not corrupt counters
            handles[1].cancel()
            assert engine.pending == 0


class TestQueueContract:
    """Direct pop-level checks on the queue implementations."""

    @pytest.mark.parametrize("kind", sorted(QUEUES))
    def test_pop_due_respects_bound(self, kind):
        engine = py_engine(kind)
        queue = engine._queue
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        assert queue.pop_due(0.5) is None
        first = queue.pop_due(1.5)
        assert first is not None and first.time == 1.0
        assert queue.pop_due(1.5) is None

    @pytest.mark.parametrize("kind", sorted(QUEUES))
    def test_pop_batch_skips_fully_cancelled_buckets(self, kind):
        engine = py_engine(kind)
        queue = engine._queue
        doomed = [engine.schedule_at(1.0, lambda: None) for _ in range(3)]
        keeper = engine.schedule_at(2.0, lambda: None)
        for h in doomed:
            h.cancel()
        batch = queue.pop_batch_due(math.inf)
        assert batch is not None
        assert keeper in batch

    @pytest.mark.parametrize("kind", sorted(QUEUES))
    def test_requeue_restores_tail(self, kind):
        engine = py_engine(kind)
        queue = engine._queue
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(1.0, lambda: None)
        batch = queue.pop_batch_due(math.inf)
        assert len(batch) == 2
        queue.requeue(batch[1:], 1.0)
        again = queue.pop_batch_due(math.inf)
        assert again == batch[1:]


class TestExceptionSemantics:
    """A raising callback must leave the engine resumable."""

    def test_exception_mid_batch_preserves_tail(self):
        for engine in all_engines():
            fired = []

            def boom():
                raise RuntimeError("boom")

            engine.schedule_at(1.0, fired.append, "before")
            engine.schedule_at(1.0, boom)
            engine.schedule_at(1.0, fired.append, "after")
            engine.schedule_at(2.0, fired.append, "later")
            with pytest.raises(RuntimeError):
                engine.run_until(3.0)
            # the raising event was consumed; the tail was not
            assert fired == ["before"]
            assert engine.pending == 2
            engine.run_until(3.0)
            assert fired == ["before", "after", "later"]
            assert engine.pending == 0


class TestClockValidation:
    """``run_until`` rejects the past and NaN on every build."""

    @pytest.mark.parametrize("t_end", [-1.0, math.nan])
    def test_run_until_rejects_past_and_nan(self, t_end):
        for engine in all_engines():
            with pytest.raises(ValueError, match="in the past"):
                engine.run_until(t_end)
            assert engine.now == 0.0


@needs_compiled
class TestCompiledSurface:
    """Pin the C engine's validation/API parity with PyEngine."""

    def test_rejects_past_and_nan(self):
        engine = compiled_engine.Engine()
        engine.run_until(5.0)
        with pytest.raises(ValueError, match="in the past"):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match="in the past"):
            engine.schedule_at(math.nan, lambda: None)
        with pytest.raises(ValueError, match="delay must be"):
            engine.schedule_after(-0.5, lambda: None)
        with pytest.raises(ValueError, match="in the past"):
            engine.run_until(1.0)

    def test_takes_no_constructor_args(self):
        with pytest.raises(TypeError, match="takes no arguments"):
            compiled_engine.Engine(1.0)

    def test_handle_surface(self):
        engine = compiled_engine.Engine()
        seen = []
        h = engine.schedule_at(1.5, seen.append, 7)
        assert h.time == 1.5
        assert h.seq == 0
        assert h.args == (7,)
        assert not h.cancelled
        h2 = engine.schedule_at(1.5, seen.append, 8)
        assert h < h2 and not (h2 < h)
        h.cancel()
        assert h.cancelled
        h.cancel()  # idempotent
        assert engine.pending == 1
