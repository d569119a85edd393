"""Segment and event vocabulary for the discrete-event SMP simulator.

A *segment* is the unit of behaviour a task asks the machine to perform
next: run on a CPU for some duration, block (sleep / wait for I/O) for
some duration, or exit. Workload behaviours (``repro.workloads``) are
segment generators; the machine (``repro.sim.machine``) consumes them.

Trace event records (``ScheduleRecord`` etc.) are lightweight tuples
collected by ``repro.sim.tracing`` for post-hoc analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Segment",
    "Run",
    "Block",
    "Exit",
    "RUN_FOREVER",
]

#: Duration used for compute-bound tasks that never finish on their own.
RUN_FOREVER = math.inf


class Segment:
    """Base class for behaviour segments. See module docstring."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Run(Segment):
    """Execute on a CPU for ``duration`` seconds of *CPU time*.

    The task may be preempted and resumed arbitrarily many times while
    completing the segment; ``duration`` counts only time actually spent
    running. ``math.inf`` (or :data:`RUN_FOREVER`) never completes.
    """

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # rejects NaN too
            raise ValueError(f"Run duration must be >= 0, got {self.duration}")


@dataclass(frozen=True, slots=True)
class Block(Segment):
    """Leave the run queue for ``duration`` seconds of *wall-clock* time.

    Models sleeping, waiting for I/O completion, pipe reads, etc. The
    clock starts when the preceding :class:`Run` segment completes.
    """

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # rejects NaN too
            raise ValueError(f"Block duration must be >= 0, got {self.duration}")


@dataclass(frozen=True, slots=True)
class Exit(Segment):
    """Terminate the task."""
