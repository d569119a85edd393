"""Per-CPU state for the simulated SMP machine.

Each :class:`Processor` tracks the task it is currently running, the
bookkeeping needed to charge CPU service correctly across partial
quanta, and an epoch counter (``seq``) that invalidates in-flight
quantum-expiry / segment-end events when the CPU is re-dispatched —
the simulator's equivalent of deleting a kernel timer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventHandle

__all__ = ["Processor"]


class Processor:
    """One CPU of the symmetric multiprocessor."""

    __slots__ = (
        "cpu_id",
        "task",
        "seq",
        "dispatch_time",
        "charged_until",
        "quantum_end",
        "busy_time",
        "overhead_time",
        "quantum_handle",
        "segment_handle",
    )

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        #: task currently running, or None when idle
        self.task: Task | None = None
        #: dispatch epoch; bumping it invalidates pending timer events
        self.seq: int = 0
        #: time at which the current task began receiving service
        self.dispatch_time: float = 0.0
        #: service has been charged to the current task up to this time
        self.charged_until: float = 0.0
        #: absolute time at which the current quantum expires
        self.quantum_end: float = 0.0
        #: cumulative time this CPU spent running tasks
        self.busy_time: float = 0.0
        #: cumulative dead time (context switch + scheduling overhead)
        self.overhead_time: float = 0.0
        self.quantum_handle: "EventHandle | None" = None
        self.segment_handle: "EventHandle | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.task.name if self.task else "idle"
        return f"<Processor {self.cpu_id}: {running}>"
