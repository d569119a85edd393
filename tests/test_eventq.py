"""Equivalence tests pinning the calendar queue to the heap oracle.

The engine's one ordering guarantee — events fire in ascending
``(time, seq)`` order — must hold identically across every queue and
engine build: the reference binary heap defined here, the pure-Python
calendar queue, and the compiled C engine. These tests drive all of
them with the same randomized schedules (same-timestamp bursts,
cancellations, reentrant scheduling from callbacks) and require
bit-identical fire logs, clocks and counters. A divergence here means
simulations would stop being reproducible across builds, which is the
repository's ground rule. A sorted run loaded with ``load_sorted``
must fire exactly as one ``schedule_at`` per entry would, and a timer
slot exactly as a handle cancelled whenever the slot is re-armed.

``PyEngine`` and ``EventHandle`` also declare the compiled surface:
the extension's public names and error messages must equal theirs.
``SFS_ENGINE`` must bind the build it names, and is the only flag the
simulation reads from the environment.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventHandle, PyEngine
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

    def pop_due(self, bound: float, seq_limit: float = math.inf):
        """Next live handle with ``time <= bound``, or None.

        A handle at exactly ``bound`` is due only if its seq is below
        ``seq_limit``. Cancelled handles encountered on the way are
        dropped.
        """
        heap = self._heap
        while heap:
            when, seq, head = heap[0]
            if head.cancelled:
                heappop(heap)
                continue
            if when > bound or (when == bound and seq > seq_limit):
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


class HandleSlotEngine(PyEngine):
    """The timer slots' oracle: a slot is a handle, cancelled on re-arm.

    Arming pushes a handle carrying the slot's reserved seq into the
    queue, which then orders it against every queued event by
    ``(time, seq)``; firing consumes it, as firing disarms a slot.
    """

    def __init__(self) -> None:
        super().__init__()
        self._callbacks: list[tuple] = []
        self._handles: list = []  # slot -> its armed handle, or None

    def add_slot(self, fn, *args) -> int:
        self._callbacks.append((fn, args))
        self._handles.append(None)
        return len(self._handles) - 1

    def arm(self, slot: int, when: float, seq: int) -> None:
        self.disarm(slot)
        fn, args = self._callbacks[slot]
        handle = EventHandle(float(when), seq, fn, args)
        handle._engine = self
        self._live += 1
        self._queue.push(handle)
        self._handles[slot] = handle

    def disarm(self, slot: int) -> None:
        handle = self._handles[slot]
        if handle is not None:
            handle.cancel()  # a no-op once it has fired
            self._handles[slot] = None


#: the pure engine's queue and its oracle, by name
QUEUES = {"calendar": CalendarEventQueue, "heap": HeapEventQueue}


def py_engine(kind: str) -> PyEngine:
    """A fresh pure engine running on the ``kind`` queue.

    The heap oracle models timer slots as handles.
    """
    engine = PyEngine() if kind == "calendar" else HandleSlotEngine()
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
#: ("at_time", t)                  schedule at max(t, now): absolute
#:                                 times that tie with a loaded run
#: ("reserve", n)                  reserve n seqs into a pool
#: ("arm", slot, dt, source)       arm one of SLOTS timer slots at
#:                                 now+dt with the slot's last seq
#:                                 (source 0, as a quantum keeps its
#:                                 seq), the pool's oldest (1) or a
#:                                 fresh one (2); each seq serves one
#:                                 slot
#: ("disarm", slot)                disarm a timer slot
SLOTS = 3
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
    st.tuples(st.just("reserve"), st.integers(1, 3)),
    st.tuples(
        st.just("arm"),
        st.integers(0, SLOTS - 1),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=16),
        st.integers(0, 2),
    ),
    st.tuples(st.just("disarm"), st.integers(0, SLOTS - 1)),
)

programs = st.lists(_op, min_size=1, max_size=40)

#: the times a loaded run and the "at_time" op draw from
GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
loaded_runs = st.lists(st.sampled_from(GRID + (math.inf,)), max_size=12).map(sorted)
loaded_programs = st.lists(
    st.one_of(_op, st.tuples(st.just("at_time"), st.sampled_from(GRID))),
    min_size=1,
    max_size=40,
)
#: tag of the first loaded entry; tags stay below 900 to schedule
#: follow-ups like any other event
LOADED_TAG = 500
#: tag of timer slot 0
SLOT_TAG = 700


def load_each(engine, times, fn, args):
    """The reference for ``load_sorted``: one ``schedule_at`` per entry."""
    for when, arg in zip(times, args):
        engine.schedule_at(when, fn, arg)


def load_sorted(engine, times, fn, args):
    engine.load_sorted(times, fn, args)


def execute(engine, program, run=(), load=load_sorted, raising=None):
    """Run ``program`` against ``engine``; return the observable log.

    Fired events record ``(sim-time, event-tag)``; after every op the
    clock and both counters are appended too, so any divergence in
    *when* state changes — not just in the final state — fails. Slot
    ``k`` fires with tag ``SLOT_TAG + k``; callbacks re-arm and disarm
    slots with fresh seqs only, as a running task's next segment does.
    ``run`` is a sorted list of times handed to ``load`` before the
    program starts; the entry at index ``raising`` raises when fired,
    and the log records where.
    """
    log: list = []
    handles: dict[int, object] = {}
    pool: list[int] = []  # reserved seqs no slot has used yet
    last_seq: dict[int, int] = {}  # slot -> the seq it was last armed with

    def arm_fresh(slot, when):
        last_seq[slot] = engine.reserve(1)
        engine.arm(slot, when, last_seq[slot])

    def fire(tag):
        log.append(("fire", engine.now, tag))
        # reentrancy: every third event schedules a same-time follow-up,
        # landing in a fresh bucket that must fire in the same pass
        if tag % 3 == 0 and tag < 900:
            handles[1000 + tag] = engine.schedule_at(
                engine.now, fire, 1000 + tag
            )
        # and some move the slots under the batch in progress
        if tag % 5 == 1:
            engine.disarm(tag % SLOTS)
        if tag % 7 == 2 and tag < 900:
            arm_fresh(tag % SLOTS, engine.now + 0.25 * (tag % 3))
        if raising is not None and tag == LOADED_TAG + raising:
            raise RuntimeError(tag)

    def fire_slot(slot):
        log.append(("fire", engine.now, SLOT_TAG + slot))
        if len(log) % 4 == 0:  # a zero-length segment: re-arm at once
            arm_fresh(slot, engine.now)

    for slot in range(SLOTS):
        assert engine.add_slot(fire_slot, slot) == slot
    if run:
        tags = [LOADED_TAG + i for i in range(len(run))]
        load(engine, list(run), fire, tags)
    for idx, op in enumerate(program):
        try:
            if op[0] == "at":
                _, dt, cancel_idx = op
                handles[idx] = engine.schedule_at(engine.now + dt, fire, idx)
                if cancel_idx is not None and cancel_idx in handles:
                    handles[cancel_idx].cancel()
            elif op[0] == "at_time":
                when = max(op[1], engine.now)
                handles[idx] = engine.schedule_at(when, fire, idx)
            elif op[0] == "run_until":
                engine.run_until(engine.now + op[1])
            elif op[0] == "step":
                log.append(("stepped", engine.step()))
            elif op[0] == "reserve":
                first = engine.reserve(op[1])
                pool.extend(range(first, first + op[1]))
            elif op[0] == "arm":
                _, slot, dt, source = op
                if source == 0 and slot in last_seq:
                    engine.arm(slot, engine.now + dt, last_seq[slot])
                elif source == 1 and pool:
                    last_seq[slot] = pool.pop(0)
                    engine.arm(slot, engine.now + dt, last_seq[slot])
                else:
                    arm_fresh(slot, engine.now + dt)
            elif op[0] == "disarm":
                engine.disarm(op[1])
            else:
                log.append(("ran", engine.run(op[1])))
        except RuntimeError as exc:
            log.append(("raised", str(exc)))
        log.append(("state", engine.now, engine.pending, engine.events_fired))
    while True:
        try:
            log.append(("final", engine.run(), engine.now, engine.events_fired))
            return log
        except RuntimeError as exc:
            log.append(("raised", str(exc)))


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

    @given(
        loaded_runs,
        loaded_programs,
        st.none() | st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=300, deadline=None)
    def test_loaded_run_matches_one_schedule_at_per_entry(self, run, program, raising):
        reference = execute(py_engine("calendar"), program, run, load_each, raising)
        for engine in all_engines():
            assert execute(engine, program, run, load_sorted, raising) == reference

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
    def test_pop_due_holds_back_a_handle_past_the_seq_limit(self, kind):
        # At the bound itself only seqs below the limit are due: a timer
        # slot with that seq fires between them.
        engine = py_engine(kind)
        queue = engine._queue
        first = engine.schedule_at(1.0, lambda: None)
        second = engine.schedule_at(1.0, lambda: None)
        assert queue.pop_due(1.0, first.seq + 0.5) is first
        assert queue.pop_due(1.0, first.seq + 0.5) is None
        assert queue.pop_due(math.nextafter(1.0, math.inf), first.seq) is second

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


class TestLoadSorted:
    """The loaded run's contract, on every engine and build."""

    def test_entries_count_as_pending_then_fired(self):
        for engine in all_engines():
            fired = []
            engine.load_sorted([1.0, 1.0, math.inf], fired.append, "abc")
            assert engine.pending == 3
            engine.run_until(1.0)
            assert (fired, engine.pending, engine.events_fired) == (["a", "b"], 1, 2)
            engine.run()
            assert fired == ["a", "b", "c"] and engine.now == math.inf
            assert (engine.pending, engine.events_fired) == (0, 3)

    def test_seqs_are_reserved_at_the_load(self):
        for engine in all_engines():
            engine.load_sorted([1.0, 2.0], print, [1, 2])
            assert engine.schedule_at(0.5, print).seq == 2

    def test_later_events_lose_ties_to_the_run(self):
        for engine in all_engines():
            fired = []
            engine.load_sorted([1.0, 1.0], fired.append, ["run-0", "run-1"])
            engine.schedule_at(1.0, fired.append, "queued")
            engine.schedule_at(0.5, fired.append, "early")
            engine.run()
            assert fired == ["early", "run-0", "run-1", "queued"]

    def test_step_merges_the_run_with_the_queue(self):
        for engine in all_engines():
            fired = []
            engine.load_sorted([1.0, 2.0], fired.append, ["run-0", "run-1"])
            engine.schedule_at(1.0, fired.append, "queued")
            assert engine.run(2) == 2
            assert fired == ["run-0", "queued"] and engine.pending == 1
            assert engine.step() and not engine.step()

    @pytest.mark.parametrize(
        "times, message",
        [
            ([3.0, 2.9], "times must be non-decreasing: 2.9 at index 1 follows 3.0"),
            ([3.0, math.nan], "cannot schedule event in the past: nan < now 2.5"),
            ([1.0], "cannot schedule event in the past: 1.0 < now 2.5"),
        ],
        ids=["unsorted", "nan", "past"],
    )
    def test_rejects_what_it_cannot_order(self, times, message):
        for engine in all_engines():
            engine.run_until(2.5)
            with pytest.raises(ValueError) as raised:
                engine.load_sorted(times, print, times)
            assert str(raised.value) == message
            assert engine.pending == 0
            assert not engine.step()

    def test_rejects_a_load_while_anything_is_pending(self):
        for engine in all_engines():
            engine.load_sorted([1.0], print, [1])
            engine.schedule_at(0.5, print)
            message = "cannot load a sorted run: 2 events are pending"
            with pytest.raises(ValueError, match=message):
                engine.load_sorted([2.0], print, [2])
            engine.run()
            engine.load_sorted([2.0], print, [2])  # idle again: fine
            assert engine.pending == 1

    def test_rejects_mismatched_lengths(self):
        for engine in all_engines():
            with pytest.raises(ValueError, match="2 arguments for 1 times"):
                engine.load_sorted([1.0], print, [1, 2])
            assert engine.pending == 0


class TestClockValidation:
    """``run_until`` rejects the past and NaN on every build."""

    @pytest.mark.parametrize("t_end", [-1.0, math.nan])
    def test_run_until_rejects_past_and_nan(self, t_end):
        for engine in all_engines():
            with pytest.raises(ValueError, match="in the past"):
                engine.run_until(t_end)
            assert engine.now == 0.0

    def test_int_times_are_stored_as_floats(self):
        for engine in all_engines():
            fired = []
            at = engine.schedule_at(3, lambda: fired.append(type(engine.now)))
            after = engine.schedule_after(1, lambda: None)
            engine.run_until(5)
            assert (type(at.time), type(after.time)) == (float, float)
            assert fired == [float]
            assert type(engine.now) is float and engine.now == 5.0


def _public_names(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


#: every error both engines raise, as (method, args) at now == 2.5 on
#: an engine with one timer slot and no seq reserved; 0.1 + 0.2 prints
#: 17 digits, so float formatting must match too
MIRRORED_ERRORS = {
    "schedule_at-past": ("schedule_at", (0.1 + 0.2, print)),
    "schedule_at-past-int": ("schedule_at", (1, print)),
    "schedule_at-nan": ("schedule_at", (math.nan, print)),
    "schedule_after-negative": ("schedule_after", (-0.5, print)),
    "schedule_after-negative-int": ("schedule_after", (-1, print)),
    "run_until-past": ("run_until", (1.25,)),
    "run_until-past-int": ("run_until", (1,)),
    "run_until-nan": ("run_until", (math.nan,)),
    "load_sorted-past": ("load_sorted", ([0.1 + 0.2], print, [1])),
    "load_sorted-nan": ("load_sorted", ([3.0, math.nan], print, [1, 2])),
    "load_sorted-unsorted": ("load_sorted", ([3.0, 3.0 - 1e-15], print, [1, 2])),
    "load_sorted-length": ("load_sorted", ([3.0], print, [])),
    "arm-past": ("arm", (0, 0.1 + 0.2, 0)),
    "arm-past-int": ("arm", (0, 1, 0)),
    "arm-nan": ("arm", (0, math.nan, 0)),
    "arm-no-slot": ("arm", (1, 3.0, 0)),
    "arm-unreserved-seq": ("arm", (0, 3.0, 0)),
    "disarm-no-slot": ("disarm", (-1,)),
    "reserve-zero": ("reserve", (0,)),
}


@needs_compiled
class TestCompiledSurface:
    """Pin the C engine's API and error parity with PyEngine.

    ``PyEngine`` and ``EventHandle`` are the only declaration of the
    compiled surface: a name or message the C code drops, renames or
    adds without its Python twin fails here.
    """

    @pytest.mark.parametrize(
        "compiled_name, reference",
        [("Engine", PyEngine), ("EventHandle", EventHandle)],
    )
    def test_public_names_match_python(self, compiled_name, reference):
        compiled = getattr(compiled_engine, compiled_name)
        assert _public_names(compiled) == _public_names(reference)

    @pytest.mark.parametrize(
        "method, args", MIRRORED_ERRORS.values(), ids=MIRRORED_ERRORS.keys()
    )
    def test_error_messages_match_python(self, method, args):
        messages = []
        for engine in (PyEngine(), compiled_engine.Engine()):
            engine.add_slot(print)
            engine.run_until(2.5)
            with pytest.raises(ValueError) as raised:
                getattr(engine, method)(*args)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

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


# ----------------------------------------------------------------------
# engine selection: SFS_ENGINE, read once at import
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

#: prints build_info() plus whether ``Engine`` is the pure class
_REPORT = (
    "import json\n"
    "from repro.sim import engine\n"
    "info = engine.build_info()\n"
    "info['is_pyengine'] = engine.Engine is engine.PyEngine\n"
    "print(json.dumps(info))\n"
)


def _fresh_interpreter(selector: str, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter under ``SFS_ENGINE=selector``."""
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "SFS_ENGINE": selector,
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
    }
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestEngineSelection:
    """``SFS_ENGINE`` binds ``Engine`` at import, on every build."""

    def test_pure_binds_pyengine(self):
        done = _fresh_interpreter("pure", _REPORT)
        assert done.returncode == 0, done.stderr
        info = json.loads(done.stdout)
        assert info["is_pyengine"]
        assert (info["engine"], info["selector"]) == ("pure", "pure")

    def test_selector_is_the_policy_applied_at_import(self):
        # Changing the variable after import rebinds nothing, so the
        # report must not follow it.
        lines = _REPORT.splitlines(keepends=True)
        lines.insert(2, "import os; os.environ['SFS_ENGINE'] = 'compiled'\n")
        done = _fresh_interpreter("pure", "".join(lines))
        assert done.returncode == 0, done.stderr
        info = json.loads(done.stdout)
        assert (info["engine"], info["selector"]) == ("pure", "pure")

    def test_unknown_selector_fails_at_import(self):
        done = _fresh_interpreter("bogus", "import repro.sim.engine")
        assert done.returncode != 0
        assert (
            "ValueError: SFS_ENGINE must be auto, compiled or pure, got 'bogus'"
            in done.stderr
        )

    @needs_compiled
    def test_compiled_binds_the_extension(self):
        done = _fresh_interpreter("compiled", _REPORT)
        assert done.returncode == 0, done.stderr
        info = json.loads(done.stdout)
        assert not info["is_pyengine"]
        assert (info["engine"], info["selector"]) == ("compiled", "compiled")

    def test_sfs_engine_is_the_only_flag_sim_code_reads(self):
        # SFS_ENGINE only picks between two identical builds; any other
        # SFS_* read would make a run depend on the environment. Any
        # literal spelling a flag name counts as a read.
        flags = set()
        for package in ("sim", "core"):
            for path in (SRC / "repro" / package).rglob("*.py"):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and re.fullmatch(r"SFS_\w+", node.value)
                    ):
                        flags.add((path.relative_to(SRC).as_posix(), node.value))
        assert flags == {("repro/sim/engine.py", "SFS_ENGINE")}
