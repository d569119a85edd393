"""The Linux 2.2 time-sharing scheduler (the paper's other baseline).

A faithful re-implementation of the 2.2.14 ``schedule()`` /
``goodness()`` logic at the granularity the paper's experiments
exercise:

- every process has a ``priority`` (ticks added per epoch; the default
  20 ticks x 10 ms = 200 ms is the paper's "maximum quantum duration")
  and a ``counter`` (remaining ticks this epoch);
- the scheduler picks the runnable process with the highest *goodness*
  = ``counter + priority``, plus an affinity bonus when the process
  last ran on the deciding CPU (``PROC_CHANGE_PENALTY``);
- a process whose counter is exhausted is skipped; when every runnable
  process has an empty counter a new epoch begins and **all** processes
  get ``counter = counter/2 + priority`` — sleepers keep half their
  remaining quantum, which is what gives I/O-bound processes their
  latency edge (Fig. 6(c));
- a waking process preempts the running process with the worst
  goodness if it beats it (``reschedule_idle()``).

Weights are ignored entirely — the scheduler has no notion of
proportional shares, which is why Fig. 6(b) shows the MPEG decoder's
frame rate collapsing as compilation load grows.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.sim.costs import DecisionCostParams
from repro.sim.scheduler import Scheduler, require_bool
from repro.sim.task import Task, TaskState

__all__ = ["LinuxTimeSharingScheduler"]

#: scheduler tick length (Linux HZ=100)
TICK = 0.01
#: affinity bonus for staying on the same CPU (arch value for i386 SMP)
PROC_CHANGE_PENALTY = 15


class LinuxTimeSharingScheduler(Scheduler):
    """Linux 2.2 goodness/epoch scheduler."""

    name = "linux-ts"

    # goodness() is a linear scan over the run queue; calibrated to
    # Table 1 (~1 us at 2 processes) and Fig. 7 (~5 us at 50).
    decision_cost_params = DecisionCostParams(base=0.45e-6, per_thread=0.09e-6)

    def __init__(self, tick: float = TICK, wake_preempt: bool = True) -> None:
        super().__init__()
        if not 0 < tick < math.inf:
            raise ValueError(f"tick must be finite and > 0, got {tick}")
        self.tick = tick
        self.wake_preempt = require_bool("wake_preempt", wake_preempt)
        self._runnable: dict[int, Task] = {}
        #: all live processes (sleepers included — epochs recharge them)
        self._all: dict[int, Task] = {}
        #: number of epoch recalculations performed (instrumentation)
        self.recalculations = 0

    # ------------------------------------------------------------------
    # goodness
    # ------------------------------------------------------------------

    def goodness(self, task: Task, cpu: int | None = None) -> float:
        """2.2's goodness(): 0 when the counter is spent, else
        counter + priority (+ affinity bonus)."""
        counter = task.sched.get("counter", 0.0)
        if counter <= 0:
            return 0.0
        g = counter + task.ts_priority
        if cpu is not None and task.last_cpu == cpu:
            g += PROC_CHANGE_PENALTY
        return g

    def _recalculate(self) -> None:
        """Start a new epoch: counter = counter/2 + priority for all."""
        self.recalculations += 1
        for task in self._all.values():
            counter = task.sched.get("counter", 0.0)
            task.sched["counter"] = counter / 2.0 + task.ts_priority

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def on_arrival(self, task: Task, now: float) -> None:
        task.sched["counter"] = float(task.ts_priority)
        self._all[task.tid] = task
        self._runnable[task.tid] = task

    def on_wakeup(self, task: Task, now: float) -> None:
        self._runnable[task.tid] = task

    def on_block(self, task: Task, now: float, ran: float) -> None:
        self._charge_ticks(task, ran)
        self._runnable.pop(task.tid, None)

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        self._charge_ticks(task, ran)

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        if ran > 0:
            self._charge_ticks(task, ran)
        self._runnable.pop(task.tid, None)
        self._all.pop(task.tid, None)

    def _charge_ticks(self, task: Task, ran: float) -> None:
        counter = task.sched.get("counter", 0.0)
        task.sched["counter"] = max(0.0, counter - ran / self.tick)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next(self, cpu: int, now: float) -> Task | None:
        if not self._runnable:
            return None
        best = self._scan(cpu)
        if best is None:
            # All runnable counters exhausted: new epoch, then rescan.
            self._recalculate()
            best = self._scan(cpu)
        return best

    def _scan(self, cpu: int) -> Task | None:
        best: Task | None = None
        best_g = 0.0
        for tid in sorted(self._runnable):
            task = self._runnable[tid]
            if task.state is not TaskState.RUNNABLE:
                continue
            g = self.goodness(task, cpu)
            if g > best_g:
                best_g = g
                best = task
        return best

    def quantum_for(self, task: Task, cpu: int, now: float) -> float | None:
        """Run until the counter is spent (the kernel decrements per
        tick; we grant the equivalent contiguous slice)."""
        counter = task.sched.get("counter", 0.0)
        return max(self.tick, counter * self.tick)

    def choose_victim(
        self, task: Task, running: Mapping[int, Task], now: float
    ) -> int | None:
        """reschedule_idle(): preempt the CPU running the least-good
        process if the woken process beats it."""
        if not self.wake_preempt or not running:
            return None
        worst_cpu: int | None = None
        worst_g: float | None = None
        for cpu, victim in running.items():
            g = self.goodness(victim, cpu)
            if worst_g is None or g < worst_g:
                worst_g = g
                worst_cpu = cpu
        if worst_cpu is None:
            return None
        # The woken process competes for worst_cpu, where it enjoys no
        # affinity bonus unless it last ran there.
        if self.goodness(task, worst_cpu) > (worst_g or 0.0):
            return worst_cpu
        return None

    def runnable_tasks(self) -> list[Task]:
        return [self._runnable[tid] for tid in sorted(self._runnable)]
