"""The event queue of the pure-Python discrete-event engine.

The engine (:mod:`repro.sim.engine`) needs exactly one ordering
guarantee from its queue: events come out in ascending ``(time, seq)``
order, where ``seq`` is the monotonically increasing scheduling serial.
:class:`CalendarEventQueue` provides it with a calendar queue in the
degenerate-bucket limit: one bucket per *exact timestamp*. Buckets
live in a dict keyed by the raw float time; a small binary heap orders
only the **distinct** pending timestamps. Because ``seq`` is assigned
monotonically, appending to a bucket keeps it sorted for free, so

- pushing into an existing bucket is O(1) (dict hit + list append),
- pushing a new timestamp is O(log B) with B = distinct times (B <= n,
  and far smaller under bursty schedules),
- popping drains a whole same-timestamp bucket with **one** heap pop,
  which is what lets the engine batch all simultaneous events through
  a single dispatch pass.

Classic calendar queues bucket a *range* of times and must then sort
within the bucket and handle year wrap-around; exact-timestamp buckets
sidestep both while keeping the property that matters here —
simulations bit-for-bit reproducible, because the ``(time, seq)``
total order is preserved exactly (same floats, same tie-break).

Cancellation is cooperative: cancelled handles stay queued and are
skipped when popped (the engine checks the ``cancelled`` flag), so
``cancel()`` itself stays O(1).

The compiled engine (:mod:`repro.sim._engine`, built from
``src/repro/sim/_engine.c`` when the optional extension is available)
implements the same structure in C; this pure-Python class is the
always-available fallback and the behavioural specification it is
tested against. Both are checked against a reference binary heap that
lives with the tests (``tests/test_eventq.py``).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventHandle

__all__ = ["CalendarEventQueue"]


class CalendarEventQueue:
    """Calendar queue with one bucket per exact timestamp.

    See the module docstring for the design; the one invariant worth
    restating is that a *drained-but-unfinished* bucket (``_head``) can
    only exist for a timestamp the engine has already advanced to, so
    no later ``push`` can ever need to land before it — the engine
    rejects scheduling into the past.
    """

    __slots__ = ("_buckets", "_times", "_head", "_head_pos", "_head_time")

    def __init__(self) -> None:
        #: raw float time -> list of handles in seq (i.e. FIFO) order
        self._buckets: dict[float, list["EventHandle"]] = {}
        #: binary heap of the distinct times present in ``_buckets``
        self._times: list[float] = []
        #: bucket currently being drained one handle at a time (only
        #: ``pop_due`` leaves one behind; batch pops consume it whole)
        self._head: list["EventHandle"] | None = None
        self._head_pos = 0
        self._head_time = math.inf

    def __len__(self) -> int:
        """Number of queued handles, including cancelled ones."""
        n = sum(len(b) for b in self._buckets.values())
        if self._head is not None:
            n += len(self._head) - self._head_pos
        return n

    def push(self, handle: "EventHandle") -> None:
        """Queue ``handle`` (reads its ``time`` and ``seq``)."""
        when = handle.time
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [handle]
            heappush(self._times, when)
        else:
            bucket.append(handle)

    def pop_due(self, bound: float) -> "EventHandle | None":
        """Next live handle with ``time <= bound``, or None."""
        while True:
            head = self._head
            if head is None:
                if not self._times or self._times[0] > bound:
                    return None
                when = heappop(self._times)
                head = self._buckets.pop(when)
                self._head = head
                self._head_pos = 0
                self._head_time = when
            pos = self._head_pos
            size = len(head)
            while pos < size:
                handle = head[pos]
                pos += 1
                if not handle.cancelled:
                    if pos == size:
                        self._head = None
                    else:
                        self._head_pos = pos
                    return handle
            self._head = None

    def pop_batch_due(self, bound: float) -> "list[EventHandle] | None":
        """All handles sharing the earliest due timestamp, or None.

        Skips buckets that turn out to be entirely cancelled; the
        returned batch may still *contain* cancelled handles (interior
        ones are the engine's job to skip while firing in seq order).
        """
        times = self._times
        while True:
            head = self._head
            if head is not None:
                # The partially drained bucket is always earliest (see
                # class docstring), but may still be beyond the bound.
                if self._head_time > bound:
                    return None
                batch = head[self._head_pos:]
                self._head = None
            elif not times or times[0] > bound:
                return None
            else:
                batch = self._buckets.pop(heappop(times))
            # A batch whose first handle is live (every live singleton)
            # needs no scan.
            if not batch[0].cancelled:
                return batch
            for handle in batch:
                if not handle.cancelled:
                    return batch

    def requeue(self, handles: "list[EventHandle]", time: float) -> None:
        """Put back the unfired tail of a popped batch (exception path).

        Only the engine's fire loop calls this, and only for the batch
        it just popped — at which point ``_head`` is empty and ``time``
        is necessarily the earliest pending timestamp, so the tail can
        simply become the new head bucket.
        """
        if not handles:
            return
        assert self._head is None, "requeue with a partially drained bucket"
        self._head = handles
        self._head_pos = 0
        self._head_time = time

