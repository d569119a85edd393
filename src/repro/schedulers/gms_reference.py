"""GMS-reference scheduler: the idealized Eq. 3 surplus policy.

SFS approximates the surplus of Eq. 3,

.. math:: \\alpha_i = A_i(t_1, t_2) - A_i^{GMS}(t_1, t_2),

with the computable Eq. 4 form ``phi_i (S_i - v)`` because "a
scheduling algorithm that actually uses Equation 3 ... is impractical
since it requires the scheduler to compute A_i^GMS (which in turn
requires a simulation of GMS)" (§2.3). In *this* repository we have the
GMS fluid simulation, so the impractical ideal is implementable — and
valuable:

- it is the yardstick the paper derives SFS from, so comparing SFS
  against it quantifies the cost of the Eq. 4 approximation directly;
- unlike Eq. 4, the true surplus can go **negative** (a deficit):
  threads that received less than their fluid entitlement queue ahead
  of newly arrived threads (whose surplus starts at zero). The Eq. 4
  approximation clamps every surplus at >= 0, which in the short-jobs
  workload of Fig. 5 lets each fresh arrival start at the global floor.
  The reference policy shows what the unclamped ideal yields.

Overhead: O(t) fluid-rate updates at every runnable-set change — the
very cost the paper's approximation avoids. Fine in simulation.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.gms import FluidGMS
from repro.sim.costs import DecisionCostParams
from repro.sim.scheduler import Scheduler, require_bool
from repro.sim.task import Task, TaskState

__all__ = ["GMSReferenceScheduler"]


class GMSReferenceScheduler(Scheduler):
    """Schedule the thread with the least *true* (Eq. 3) surplus.

    Maintains a live :class:`FluidGMS` integrator over the runnable
    set; the surplus of a thread is its actual accumulated service
    minus its fluid-GMS service, both measured since its arrival.
    """

    name = "GMS-reference"

    # Fluid-rate updates touch every runnable thread.
    decision_cost_params = DecisionCostParams(base=2.0e-6, per_thread=0.25e-6)

    def __init__(self, wake_preempt: bool = True) -> None:
        super().__init__()
        self.wake_preempt = require_bool("wake_preempt", wake_preempt)
        self._runnable: dict[int, Task] = {}
        self._gms: FluidGMS | None = None

    def _fluid(self) -> FluidGMS:
        if self._gms is None:
            assert self.machine is not None
            self._gms = FluidGMS(self.machine.num_cpus)
        return self._gms

    # -- hooks ---------------------------------------------------------

    def on_arrival(self, task: Task, now: float) -> None:
        task.phi = task.weight
        self._fluid().arrive(task.tid, task.weight, now)
        self._runnable[task.tid] = task

    def on_wakeup(self, task: Task, now: float) -> None:
        self._fluid().arrive(task.tid, task.weight, now)
        self._runnable[task.tid] = task

    def on_block(self, task: Task, now: float, ran: float) -> None:
        self._fluid().depart(task.tid, now)
        self._runnable.pop(task.tid, None)

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        # A thread that exits while blocked already departed the fluid
        # system; departing again would split its interval at ``now``.
        if self._runnable.pop(task.tid, None) is not None:
            self._fluid().depart(task.tid, now)

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        self._fluid().advance_to(now)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        task.phi = task.weight
        self._fluid().set_weight(task.tid, task.weight, now)

    # -- decisions --------------------------------------------------------

    def surplus_of(self, task: Task, now: float) -> float:
        """True Eq. 3 surplus: actual service minus fluid-GMS service.

        Includes service received in the current quantum so far when
        the task is running (used by the preemption rule).
        """
        fluid = self._fluid()
        fluid.advance_to(now)
        actual = task.service
        if task.state is TaskState.RUNNING and self.machine is not None:
            proc = self.machine.processors[task.last_cpu]
            if proc.task is task:
                actual += max(0.0, now - proc.charged_until)
        return actual - fluid.service_of(task.tid)

    def pick_next(self, cpu: int, now: float) -> Task | None:
        best: Task | None = None
        best_key: tuple | None = None
        for tid in sorted(self._runnable):
            task = self._runnable[tid]
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (self.surplus_of(task, now), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best

    def choose_victim(
        self, task: Task, running: Mapping[int, Task], now: float
    ) -> int | None:
        if not self.wake_preempt or not running:
            return None
        new_surplus = self.surplus_of(task, now)
        worst_cpu: int | None = None
        worst = None
        for cpu, victim in running.items():
            s = self.surplus_of(victim, now)
            if worst is None or s > worst:
                worst = s
                worst_cpu = cpu
        if worst is not None and new_surplus < worst:
            return worst_cpu
        return None

    def runnable_tasks(self) -> list[Task]:
        return [self._runnable[tid] for tid in sorted(self._runnable)]
