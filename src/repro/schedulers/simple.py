"""Shared machinery for the non-tag-based baseline schedulers.

Stride, lottery and round-robin only need a runnable set plus optional
§2.1 weight readjustment (`task.phi` maintenance); this base class
provides exactly that so each policy file contains only its policy.
Readjustment runs through the same incremental
:class:`~repro.core.weights.ReadjustmentFrontier` the tag-based
schedulers use: dict work plus at most ``p`` per-class tests per
arrival, wakeup, block, exit and weight change.
"""

from __future__ import annotations

from repro.core.weights import ReadjustmentFrontier
from repro.sim.scheduler import Scheduler
from repro.sim.task import Task, TaskState

__all__ = ["SimpleQueueScheduler"]


class SimpleQueueScheduler(Scheduler):
    """Runnable-set bookkeeping + optional weight readjustment."""

    def __init__(self, readjust: bool = False) -> None:
        super().__init__()
        self.readjust = readjust
        #: incremental §2.1 frontier (created at attach; needs num_cpus)
        self.frontier: ReadjustmentFrontier | None = None
        self._runnable: dict[int, Task] = {}

    def attach(self, machine) -> None:
        super().attach(machine)
        if self.readjust:
            self.frontier = ReadjustmentFrontier(machine.num_cpus)

    # -- hooks ---------------------------------------------------------

    def on_arrival(self, task: Task, now: float) -> None:
        if self.frontier is None:
            task.phi = task.weight
        self._runnable[task.tid] = task
        self._enter(task, now)
        if self.frontier is not None:
            self.frontier.add(task)

    def on_wakeup(self, task: Task, now: float) -> None:
        if self.frontier is None:
            task.phi = task.weight
        self._runnable[task.tid] = task
        self._resume(task, now)
        if self.frontier is not None:
            self.frontier.add(task)

    def on_block(self, task: Task, now: float, ran: float) -> None:
        # Charge first: stride's stride uses the phi the task ran at.
        self._account(task, now, ran)
        self._runnable.pop(task.tid, None)
        self._leave(task, now)
        if self.frontier is not None:
            self.frontier.remove(task)

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        self._account(task, now, ran)

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        if ran > 0:
            self._account(task, now, ran)
        self._runnable.pop(task.tid, None)
        self._leave(task, now)
        if self.frontier is not None:
            self.frontier.remove(task)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        if self.frontier is None:
            task.phi = task.weight
        elif task.tid in self._runnable:
            # Blocked tasks are not frontier members; their phi is
            # re-derived on wakeup from the then-current weight.
            self.frontier.reweight(task, old_weight)

    # -- extension points ------------------------------------------------

    def _enter(self, task: Task, now: float) -> None:
        """A new task joined the runnable set."""

    def _resume(self, task: Task, now: float) -> None:
        """A blocked task rejoined the runnable set."""
        self._enter(task, now)

    def _leave(self, task: Task, now: float) -> None:
        """A task left the runnable set (block or exit)."""

    def _account(self, task: Task, now: float, ran: float) -> None:
        """The task just ran ``ran`` seconds (any reason)."""

    # -- shared helpers ---------------------------------------------------

    def schedulable(self) -> list[Task]:
        """Runnable tasks not currently on a CPU, in tid order."""
        return [
            self._runnable[tid]
            for tid in sorted(self._runnable)
            if self._runnable[tid].state is TaskState.RUNNABLE
        ]

    def runnable_tasks(self) -> list[Task]:
        return [self._runnable[tid] for tid in sorted(self._runnable)]
