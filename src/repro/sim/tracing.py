"""Trace collection for simulated runs.

The trace records the event-level history needed to (a) reconstruct the
figures in the paper (cumulative service / iterations over time), (b)
replay the same runnable-set timeline through the fluid GMS oracle for
fairness measurement, and (c) count scheduler work (decisions, context
switches) for the overhead experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.sim.task import Task

__all__ = ["TraceEvent", "Trace"]

# Event kinds recorded in the runnable-set timeline. These are exactly
# the points at which the fluid GMS oracle's rate allocation changes.
ARRIVE = "arrive"
WAKE = "wake"
BLOCK = "block"
EXIT = "exit"
WEIGHT = "weight"


# Both history records are NamedTuples rather than frozen dataclasses
# because a long recorded run holds hundreds of thousands of them and a
# tuple carries no per-instance dict. The cycle collector still tracks
# every one: it untracks only exact tuples of atomic values, not
# instances of a tuple subclass. That is why the timeline itself is
# stored as flat columns, and consumers that only read it call
# :meth:`Trace.event_tuples` instead of :attr:`Trace.events`.


class TraceEvent(NamedTuple):
    """One runnable-set change: (time, kind, tid, weight-at-event)."""

    time: float
    kind: str
    tid: int
    weight: float


class RunInterval(NamedTuple):
    """One contiguous occupancy of a CPU by a task."""

    cpu: int
    tid: int
    start: float
    end: float


@dataclass
class Trace:
    """Accumulates simulation history.

    Attributes
    ----------
    events:
        Runnable-set timeline (arrivals, wakeups, blocks, exits, weight
        changes) for GMS replay.
    context_switches:
        Count of dispatches where the incoming task differs from the
        outgoing one (per the lmbench definition).
    dispatches:
        Total pick-next decisions that resulted in a task running.
    decisions:
        Total pick-next invocations (including ones that found no task).
    preemptions:
        Involuntary context switches (quantum expiry or wakeup preemption).
    overhead_time:
        Total CPU dead time charged by the cost model, across all CPUs.
    """

    record_events: bool = True
    #: gate for :meth:`record_run` on top of ``record_events``: lets a
    #: consumer that forced event recording for replay (the auditor)
    #: opt out of the per-dispatch CPU occupancy intervals it never
    #: reads
    record_runs: bool = True
    #: columnar event storage: four parallel scalar lists instead of a
    #: list of records, so the hot-path append is two opcodes per column
    #: and the stored history is invisible to the cycle collector (a
    #: recorded N=5000 run otherwise pays more in GC scans than in
    #: simulation); :attr:`events` materializes lazily on access
    _ev_time: list[float] = field(default_factory=list, repr=False)
    _ev_kind: list[str] = field(default_factory=list, repr=False)
    _ev_tid: list[int] = field(default_factory=list, repr=False)
    _ev_weight: list[float] = field(default_factory=list, repr=False)
    _ev_cache: list[TraceEvent] = field(default_factory=list, repr=False)
    #: CPU occupancy intervals (for Gantt rendering); recorded when
    #: record_events is on
    run_intervals: list[RunInterval] = field(default_factory=list)
    #: streaming observers invoked as fn(time, kind, task) on every
    #: runnable-set event, independent of record_events — the invariant
    #: auditor listens here even when event storage is off
    on_event: list = field(default_factory=list)
    context_switches: int = 0
    dispatches: int = 0
    decisions: int = 0
    preemptions: int = 0
    overhead_time: float = 0.0

    def record(self, time: float, kind: str, task: Task) -> None:
        """Append a runnable-set event (if event recording is enabled)."""
        if self.record_events:
            self._ev_time.append(time)
            self._ev_kind.append(kind)
            self._ev_tid.append(task.tid)
            self._ev_weight.append(task.weight)
        if self.on_event:
            for observer in self.on_event:
                observer(time, kind, task)

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded runnable-set timeline as :class:`TraceEvent` rows.

        Materialized from the columnar storage on first access and
        cached (re-materialized only if more events were recorded
        since). Hot-path consumers that just need the tuples should
        prefer :meth:`event_tuples`.
        """
        if len(self._ev_cache) != len(self._ev_time):
            self._ev_cache = list(map(TraceEvent._make, self.event_tuples()))
        return self._ev_cache

    @property
    def event_count(self) -> int:
        """Number of recorded events (no materialization)."""
        return len(self._ev_time)

    def event_tuples(self):
        """Iterate the timeline as plain ``(time, kind, tid, weight)``
        tuples, in recording (= time) order, without building records.
        """
        return zip(self._ev_time, self._ev_kind, self._ev_tid, self._ev_weight)

    def record_run(self, cpu: int, tid: int, start: float, end: float) -> None:
        """Append a CPU occupancy interval (if recording is enabled)."""
        if self.record_events and self.record_runs and end > start:
            self.run_intervals.append(RunInterval(cpu, tid, start, end))

    def events_between(self, t0: float, t1: float) -> Iterator[TraceEvent]:
        """Events with t0 <= time < t1, in order."""
        return (ev for ev in self.events if t0 <= ev.time < t1)

    def summary(self) -> dict[str, float]:
        """Scalar counters as a dict (handy for table rendering)."""
        return {
            "context_switches": self.context_switches,
            "dispatches": self.dispatches,
            "decisions": self.decisions,
            "preemptions": self.preemptions,
            "overhead_time": self.overhead_time,
        }
