"""Start-time fair queueing (SFQ) — the paper's principal baseline.

SFQ [Goyal, Guo & Vin, OSDI'96] maintains the same start/finish tags as
SFS but schedules the thread with the **minimum start tag**. On a
uniprocessor this provides strong fairness bounds; on a multiprocessor
it exhibits the two pathologies the paper demonstrates:

- **infeasible weights** (Example 1 / Figs. 1 & 4(a)): a thread whose
  weight demands more than one processor's bandwidth advances its tag
  slowly, holds the minimum forever, and starves equal-weight peers
  when a third thread arrives;
- **short-jobs unfairness** (Example 2 / Fig. 5(a)): frequent arrivals
  are initialized at the minimum tag and run in "spurts", so
  short-lived threads grab far more than their share.

Pass ``readjust=True`` to couple SFQ with the §2.1 weight readjustment
algorithm — the Fig. 4(b) configuration, which removes starvation but
(per §4.3) not the short-jobs unfairness.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.fixed_point import TagArithmetic
from repro.core.tags import TaggedScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.task import Task

__all__ = ["StartTimeFairScheduler"]


class StartTimeFairScheduler(TaggedScheduler):
    """Multiprocessor SFQ as described in §1.2 of the paper.

    Each scheduling instance picks the runnable (non-running) thread
    with the minimum start tag; arriving threads get ``S = v`` (the
    minimum start tag over runnable threads), waking threads
    ``S = max(F, v)``.
    """

    name = "SFQ"

    # Head-of-queue decision with sorted insertion on updates: cheap and
    # nearly independent of run-queue length.
    decision_cost_params = DecisionCostParams(base=0.8e-6, per_thread=0.03e-6)

    def __init__(
        self,
        readjust: bool = False,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
    ) -> None:
        super().__init__(
            readjust=readjust, tag_math=tag_math, wake_preempt=wake_preempt
        )
        if readjust:
            self.name = "SFQ+readjust"

    def pick_next(self, cpu: int, now: float) -> Task | None:
        return self._first_schedulable(self.start_queue)

    def choose_victim(
        self, task: Task, running: Mapping[int, Task], now: float
    ) -> int | None:
        """Preempt the running thread with the largest projected start
        tag if the woken thread's tag is strictly smaller (SFQ rank)."""
        if not self.wake_preempt or not running:
            return None
        new_tag = task.sched["S"]
        worst_cpu: int | None = None
        worst_tag = None
        for cpu, victim in running.items():
            projected = self.tags.finish_tag(
                victim.sched["S"], self._running_elapsed(cpu, now), victim.phi
            )
            if worst_tag is None or projected > worst_tag:
                worst_tag = projected
                worst_cpu = cpu
        if worst_tag is not None and new_tag < worst_tag:
            return worst_cpu
        return None
