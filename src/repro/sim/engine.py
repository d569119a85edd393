"""A minimal, deterministic discrete-event engine.

The engine maintains a queue of timestamped callbacks. Events scheduled
at identical times fire in the order they were scheduled (FIFO), which
keeps every simulation in this repository bit-for-bit reproducible.

The engine knows nothing about CPUs or schedulers; the machine layer
(:mod:`repro.sim.machine`) builds on top of it.

Events live in one of three ordered sources. Everything scheduled with
:meth:`PyEngine.schedule_at` (or ``schedule_after``) gets an
:class:`EventHandle` in the calendar queue. A build-time population of
arrivals, known and sorted before the run, is handed over once with
:meth:`PyEngine.load_sorted`: a cursor over plain parallel lists, with
no handle per entry. Its seqs are reserved at the load, before any
other event exists, so the cursor wins every tie. And each timer slot
(:meth:`PyEngine.add_slot`) holds at most one pending firing, armed
with :meth:`PyEngine.arm` at a seq reserved earlier with
:meth:`PyEngine.reserve`: one processor's next timer, re-armed in place
instead of pushed, cancelled and popped as a handle. ``_queue_bound``
is the one place the sources merge; a slot and a queued event at the
same time fire in seq order.

Two engine implementations share this contract:

- :class:`PyEngine` (this module): pure Python, on the calendar queue
  of :mod:`repro.sim.eventq`, which batches all same-timestamp events
  through a single dispatch pass.
- ``repro.sim._engine.Engine``: the optional C extension (built from
  ``src/repro/sim/_engine.c``), implementing the same calendar queue
  and run loop in C. It is selected automatically when importable.

``Engine`` — the name the rest of the repository uses — binds to the
compiled implementation when present, unless ``SFS_ENGINE=pure``
forces the fallback (``SFS_ENGINE=compiled`` conversely *requires* the
extension and raises if it is missing). Both implementations are
behaviourally identical event for event; the test suite and the golden
contracts run against whichever is active, and
``tests/test_eventq.py`` pins pure-vs-compiled equivalence directly.
Call :func:`build_info` (or ``sfs-experiment list --build-info``) to
see which path is live.
"""

from __future__ import annotations

import os
from math import inf, nan, nextafter
from operator import index
from typing import Any, Callable, Sequence

from repro.sim.eventq import CalendarEventQueue

__all__ = ["Engine", "EventHandle", "PyEngine", "build_info"]


class EventHandle:
    """Handle to a scheduled event; allows O(1) cancellation.

    Cancelled events stay in the queue but are skipped when popped. The
    handle keeps a back-reference to its engine while live so that
    cancellation can maintain the engine's pending-event counter; the
    reference is dropped once the event fires or is cancelled.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine: "PyEngine | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._live -= 1
            self._engine = None

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {self.fn.__name__} ({state})>"


class PyEngine:
    """Discrete-event simulation clock and calendar event queue (pure Python)."""

    def __init__(self) -> None:
        self._queue = CalendarEventQueue()
        self._now = 0.0
        self._seq = 0
        self._fired = 0
        self._live = 0
        # the loaded run: fn(args[i]) fires at times[i], for i >= pos
        self._loaded_times: list[float] = []
        self._loaded_args: list = []
        self._loaded_fn: Callable[[Any], Any] | None = None
        self._loaded_pos = 0
        # timer slot i calls fns[i](*args[i]) at times[i]; seqs[i] is -1
        # while it is disarmed
        self._slot_fns: list[Callable[..., Any]] = []
        self._slot_args: list[tuple] = []
        self._slot_times: list[float] = []
        self._slot_seqs: list[int] = []
        self._armed = 0
        # the earliest armed slot, by (time, seq); index -1 and time NaN
        # (which compares false with everything) while none is armed
        self._slot = -1
        self._slot_time = nan
        self._slot_seq = -1

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events processed so far, slot firings included."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events — O(1).

        An armed timer slot counts once.
        """
        return self._live

    def schedule_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire at absolute time ``when``.

        Raises ``ValueError`` if ``when`` is in the past (or NaN);
        simultaneous events fire in scheduling order. ``when`` is stored
        as a float, as the compiled engine stores it.
        """
        when = float(when)
        if not when >= self._now:  # rejects the past and NaN in one test
            raise ValueError(
                f"cannot schedule event in the past: {when} < now {self._now}"
            )
        handle = EventHandle(when, self._seq, fn, args)
        handle._engine = self
        self._seq += 1
        self._live += 1
        self._queue.push(handle)
        return handle

    def schedule_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def add_slot(self, fn: Callable[..., Any], *args: Any) -> int:
        """Add a disarmed timer slot that calls ``fn(*args)``; return its index.

        A slot holds at most one pending firing. Firing disarms it, so
        the callback re-arms it if it wants another.
        """
        self._slot_fns.append(fn)
        self._slot_args.append(args)
        self._slot_times.append(nan)
        self._slot_seqs.append(-1)
        return len(self._slot_seqs) - 1

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive seqs for :meth:`arm`; return the first.

        A reserved seq orders a later arm among the events scheduled
        around the reservation, as if it had been scheduled then.
        """
        count = index(count)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        seq = self._seq
        self._seq = seq + count
        return seq

    def arm(self, slot: int, when: float, seq: int) -> None:
        """Set timer slot ``slot`` to fire at ``(when, seq)``.

        Replaces the slot's pending firing, if any. ``seq`` must have
        been reserved; against the queue the slot fires in ``(time,
        seq)`` order, and the loaded run wins every tie. Raises
        ``ValueError`` if ``when`` is in the past (or NaN), as
        :meth:`schedule_at` does, or if the slot or seq does not exist.
        """
        when = float(when)
        if not when >= self._now:  # rejects the past and NaN in one test
            raise ValueError(
                f"cannot schedule event in the past: {when} < now {self._now}"
            )
        seqs = self._slot_seqs
        if not 0 <= slot < len(seqs):
            raise ValueError(f"no timer slot {slot}")
        if not 0 <= seq < self._seq:
            raise ValueError(f"seq {seq} was never reserved")
        if seqs[slot] < 0:
            self._armed += 1
            self._live += 1
        self._slot_times[slot] = when
        seqs[slot] = seq
        first = self._slot
        if (
            first < 0
            or when < self._slot_time
            or (when == self._slot_time and seq < self._slot_seq)
        ):
            self._slot = slot
            self._slot_time = when
            self._slot_seq = seq
        elif first == slot:  # the earliest slot moved later
            self._find_first_slot()

    def disarm(self, slot: int) -> None:
        """Cancel timer slot ``slot``'s pending firing (no-op if it has none)."""
        seqs = self._slot_seqs
        if not 0 <= slot < len(seqs):
            raise ValueError(f"no timer slot {slot}")
        if seqs[slot] >= 0:
            self._clear_slot(slot)

    def _clear_slot(self, slot: int) -> None:
        """Disarm the armed ``slot`` and find the earliest slot left."""
        self._slot_seqs[slot] = -1
        self._live -= 1
        self._armed -= 1
        if not self._armed:
            self._slot = -1
            self._slot_time = nan
        elif slot == self._slot:
            self._find_first_slot()

    def _find_first_slot(self) -> None:
        """Point the merge at the earliest armed slot, by ``(time, seq)``."""
        first, first_time, first_seq = -1, nan, -1
        times = self._slot_times
        for slot, seq in enumerate(self._slot_seqs):
            if seq >= 0:
                when = times[slot]
                if (
                    first < 0
                    or when < first_time
                    or (when == first_time and seq < first_seq)
                ):
                    first, first_time, first_seq = slot, when, seq
        self._slot = first
        self._slot_time = first_time
        self._slot_seq = first_seq

    def load_sorted(
        self, times: Sequence[float], fn: Callable[[Any], Any], args: Sequence
    ) -> None:
        """Schedule ``fn(args[i])`` at ``times[i]`` for every ``i``, at once.

        The run must be non-decreasing and nothing may be pending, so
        its seqs, reserved here, are the lowest of every event that
        will ever share its times: on a tie the run fires first, in
        index order. Raises ``ValueError`` if an entry is in the past
        (or NaN), out of order, or the two sequences differ in length.
        """
        if self._live:
            raise ValueError(
                f"cannot load a sorted run: {self._live} events are pending"
            )
        times = list(map(float, times))
        args = list(args)
        if len(args) != len(times):
            raise ValueError(
                f"need one argument per time: {len(args)} arguments "
                f"for {len(times)} times"
            )
        prev = now = self._now
        for i, when in enumerate(times):
            if not when >= prev:  # out of order, in the past or NaN
                if not when >= now:
                    raise ValueError(
                        f"cannot schedule event in the past: {when} < now {now}"
                    )
                raise ValueError(
                    f"times must be non-decreasing: {when} at index {i} "
                    f"follows {prev}"
                )
            prev = when
        self._loaded_times = times
        self._loaded_args = args
        self._loaded_fn = fn
        self._loaded_pos = 0
        self._seq += len(times)
        self._live += len(times)

    def _queue_bound(self, bound: float) -> float:
        """How far the queue may fire before the loaded run and the slots.

        The float just below the loaded run's next entry when that entry
        is due by ``bound`` and no later than the earliest slot: it wins
        every tie. Else the earliest slot's time when that slot is due:
        the queue fires up to it, and a queued event at that very time
        goes before or after the slot by seq, as the fire loops check.
        Else ``bound``. So the result equals the earliest slot's time
        exactly when that slot is due, and is otherwise below ``bound``
        exactly when a loaded entry is due.
        """
        slot_time = self._slot_time
        pos = self._loaded_pos
        times = self._loaded_times
        if pos < len(times):
            when = times[pos]
            if when <= bound and not when > slot_time:
                return nextafter(when, -inf)
        if slot_time <= bound:
            return slot_time
        return bound

    def _fire_loaded(self) -> None:
        """Fire the loaded run's next entry."""
        pos = self._loaded_pos
        self._loaded_pos = pos + 1
        self._now = self._loaded_times[pos]
        self._fired += 1
        self._live -= 1
        self._loaded_fn(self._loaded_args[pos])

    def _fire_slot(self) -> None:
        """Fire the earliest armed slot, disarming it first."""
        slot = self._slot
        self._now = self._slot_time
        self._fired += 1
        self._clear_slot(slot)
        self._slot_fns[slot](*self._slot_args[slot])

    def step(self) -> bool:
        """Fire the next pending event. Returns False if none is pending."""
        bound = self._queue_bound(inf)
        slot_due = bound == self._slot_time
        # a handle at the slot's own time goes first only by seq
        handle = self._queue.pop_due(bound, self._slot_seq if slot_due else inf)
        if handle is None:
            if slot_due:
                self._fire_slot()
            elif bound == inf:
                return False
            else:
                self._fire_loaded()
            return True
        self._now = handle.time
        self._fired += 1
        self._live -= 1
        handle._engine = None  # a later cancel() must not re-decrement
        handle.fn(*handle.args)
        return True

    def _drain(self, t_end: float) -> None:
        """Fire every event with ``time <= t_end``, batch by batch.

        All events sharing a timestamp arrive as one batch from the
        queue and go through a single dispatch pass here — one queue
        operation, then a tight fire loop. Events a callback schedules
        *at the current time* land in a fresh bucket and fire in the
        next batch, which is exactly their ``(time, seq)`` slot since
        their seq is higher than everything already queued at that
        time. Entries of the loaded run and slot firings go one by one
        in between, as :meth:`_queue_bound` bounds each queue pop; a
        slot armed for the batch's own time with a lower seq than the
        next handle fires before it, and the rest of the batch after.
        """
        queue = self._queue
        pop_batch_due = queue.pop_batch_due
        queue_bound = self._queue_bound
        while True:
            bound = queue_bound(t_end)
            batch = pop_batch_due(bound)
            if batch is None:
                # Nothing queued up to the bound: the due slot, the due
                # loaded entry, or the end.
                if bound == self._slot_time:
                    self._fire_slot()
                elif bound == t_end:
                    return
                else:
                    self._fire_loaded()
                continue
            now = batch[0].time
            self._now = now
            i = 0
            tied = False
            try:
                for i, handle in enumerate(batch):
                    if handle.cancelled:
                        continue
                    if now == self._slot_time and self._slot_seq < handle.seq:
                        tied = True
                        break
                    # Counters move before the callback runs, exactly as
                    # in step(): a callback reading ``pending`` or
                    # ``events_fired`` must see the same values on either
                    # code path.
                    self._fired += 1
                    self._live -= 1
                    handle._engine = None
                    handle.fn(*handle.args)
            except BaseException:
                # Leave the queue as if the unfired tail had never been
                # popped, so a caller that catches the exception can
                # keep stepping the simulation.
                queue.requeue(batch[i + 1 :], now)
                raise
            if tied:
                queue.requeue(batch[i:], now)
                self._fire_slot()

    def run_until(self, t_end: float) -> None:
        """Process all events with time <= ``t_end``; leave now == t_end.

        Events scheduled exactly at ``t_end`` do fire. Raises
        ``ValueError`` if ``t_end`` is in the past (or NaN).
        """
        t_end = float(t_end)
        if not t_end >= self._now:  # rejects the past and NaN in one test
            raise ValueError(f"t_end {t_end} is in the past (now={self._now})")
        self._drain(t_end)
        self._now = t_end

    def run(self, max_events: int | None = None) -> int:
        """Run until nothing is pending.

        ``max_events`` bounds the number of events fired (a safety valve
        for workloads that regenerate events forever). Returns the number
        of events fired by this call.
        """
        if max_events is None:
            before = self._fired
            self._drain(inf)
            return self._fired - before
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        return fired


def _select_engine():
    """Bind ``Engine`` per the ``SFS_ENGINE`` policy (see module doc).

    Returns the class, its kind and the policy applied.
    """
    choice = os.environ.get("SFS_ENGINE", "auto")
    if choice not in ("auto", "compiled", "pure"):
        raise ValueError(
            f"SFS_ENGINE must be auto, compiled or pure, got {choice!r}"
        )
    compiled = None
    if choice != "pure":
        try:
            from repro.sim import _engine as compiled
        except ImportError:
            compiled = None
        if choice == "compiled" and compiled is None:
            raise ImportError(
                "SFS_ENGINE=compiled but the repro.sim._engine extension is "
                "not importable; build it with `python setup.py build_ext "
                "--inplace` (or `SFS_BUILD_EXT=1 pip install -e .`)"
            )
    if compiled is not None:
        return compiled.Engine, "compiled", choice
    return PyEngine, "pure", choice


Engine, _ENGINE_KIND, _ENGINE_SELECTOR = _select_engine()


def build_info() -> dict:
    """Report which engine build is active.

    Returned keys: ``engine`` (``"compiled"`` or ``"pure"``),
    ``engine_class`` (qualified class name), ``compiled_available``
    (whether the C extension imports), and ``selector`` (the
    ``SFS_ENGINE`` policy applied at import, which chose ``engine``).
    Surfaced by ``sfs-experiment list --build-info`` so sweep logs can
    record which hot path produced them.
    """
    try:
        from repro.sim import _engine  # noqa: F401

        available = True
    except ImportError:
        available = False
    return {
        "engine": _ENGINE_KIND,
        "engine_class": f"{Engine.__module__}.{Engine.__qualname__}",
        "compiled_available": available,
        "selector": _ENGINE_SELECTOR,
    }
