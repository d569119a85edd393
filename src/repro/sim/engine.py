"""A minimal, deterministic discrete-event engine.

The engine maintains a queue of timestamped callbacks. Events scheduled
at identical times fire in the order they were scheduled (FIFO), which
keeps every simulation in this repository bit-for-bit reproducible.

The engine knows nothing about CPUs or schedulers; the machine layer
(:mod:`repro.sim.machine`) builds on top of it.

Events live in one of two ordered sources. Everything scheduled with
:meth:`PyEngine.schedule_at` (or ``schedule_after``) gets an
:class:`EventHandle` in the calendar queue. A build-time population of
arrivals, known and sorted before the run, is handed over once with
:meth:`PyEngine.load_sorted`: a cursor over plain parallel lists, with
no handle per entry. Its seqs are reserved at the load, before any
other event exists, so at equal times the cursor fires ahead of the
queue; ``_queue_bound`` is the one place the two sources merge.

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
from math import inf, nextafter
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

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events processed so far (instrumentation)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events — O(1)."""
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
        """How far the queue may fire before the loaded run's next entry.

        ``bound`` itself when no loaded entry is due by then; else the
        float just below that entry's time, so the queue gives up every
        tie to it (its seq is lower than anything queued). The result
        is below ``bound`` exactly when a loaded entry is due.
        """
        pos = self._loaded_pos
        times = self._loaded_times
        if pos < len(times) and times[pos] <= bound:
            return nextafter(times[pos], -inf)
        return bound

    def _fire_loaded(self) -> None:
        """Fire the loaded run's next entry."""
        pos = self._loaded_pos
        self._loaded_pos = pos + 1
        self._now = self._loaded_times[pos]
        self._fired += 1
        self._live -= 1
        self._loaded_fn(self._loaded_args[pos])

    def step(self) -> bool:
        """Fire the next pending event. Returns False if none is pending."""
        bound = self._queue_bound(inf)
        handle = self._queue.pop_due(bound)
        if handle is None:
            if bound == inf:
                return False
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
        time. Entries of the loaded run fire one by one in between, as
        :meth:`_queue_bound` bounds each queue pop; once the run is
        used up the loop is the queue's alone.
        """
        queue = self._queue
        pop_batch_due = queue.pop_batch_due
        bound = self._queue_bound(t_end)
        while True:
            batch = pop_batch_due(bound)
            if batch is None:
                if bound == t_end:
                    return
                # Nothing queued before the loaded run's next entry,
                # which is due: fire it, then look for the one after.
                self._fire_loaded()
                bound = self._queue_bound(t_end)
                continue
            self._now = batch[0].time
            i = 0
            try:
                for i, handle in enumerate(batch):
                    if handle.cancelled:
                        continue
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
                queue.requeue(batch[i + 1 :], self._now)
                raise

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
        """Run until the event queue is empty.

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
