"""Per-CPU state for the simulated SMP machine.

Each :class:`Processor` tracks the task it is currently running, the
bookkeeping needed to charge CPU service correctly across partial
quanta, and its one timer: an engine timer slot (``slot``) armed for
whichever of the running task's segment end and quantum end comes
first — the simulator's equivalent of a kernel timer, re-armed in
place at every dispatch and disarmed when the task leaves the CPU.
"""

from __future__ import annotations

from repro.sim.task import Task

__all__ = ["Processor"]


class Processor:
    """One CPU of the symmetric multiprocessor."""

    __slots__ = (
        "cpu_id",
        "task",
        "slot",
        "segment_timer",
        "quantum_seq",
        "dispatch_time",
        "charged_until",
        "quantum_end",
        "busy_time",
        "overhead_time",
    )

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        #: task currently running, or None when idle
        self.task: Task | None = None
        #: the engine timer slot of this CPU (set by the machine)
        self.slot = -1
        #: whether the armed timer ends the task's segment, not its quantum
        self.segment_timer = False
        #: the seq reserved for the quantum's end at dispatch
        self.quantum_seq: int = -1
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.task.name if self.task else "idle"
        return f"<Processor {self.cpu_id}: {running}>"
