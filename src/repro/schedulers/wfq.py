"""Weighted fair queueing (WFQ) adapted to CPU scheduling.

WFQ [Parekh '92, ref. 21 of the paper] schedules by **finish tag**: the
thread picked is the one whose current quantum would finish earliest in
the fluid system. The CPU adaptation used here mirrors the packet
discipline with a quantum in place of a packet:

- an arriving/waking thread gets ``S = max(F, v)``;
- its *expected* finish tag is ``F_exp = S + q_nominal / phi``;
- the scheduler runs the runnable thread with the minimum ``F_exp``;
- after the thread actually runs ``ran`` seconds, its real finish tag
  ``F = S + ran / phi`` is recorded and becomes the next start tag.

The paper groups WFQ with the GPS instantiations that starve threads
under infeasible weights (§1.2); ``readjust=True`` applies the §2.1
fix. Reuses the tag machinery of :class:`repro.core.tags.TaggedScheduler`;
only the selection key differs from SFQ.
"""

from __future__ import annotations

from repro.core.fixed_point import TagArithmetic
from repro.core.tags import TaggedScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.task import Task, TaskState

__all__ = ["WeightedFairQueueingScheduler"]


class WeightedFairQueueingScheduler(TaggedScheduler):
    """Finish-tag (smallest-expected-finish-first) scheduling."""

    name = "WFQ"

    decision_cost_params = DecisionCostParams(base=0.9e-6, per_thread=0.04e-6)

    def __init__(
        self,
        readjust: bool = False,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
        nominal_quantum: float | None = None,
    ) -> None:
        super().__init__(
            readjust=readjust, tag_math=tag_math, wake_preempt=wake_preempt
        )
        if readjust:
            self.name = "WFQ+readjust"
        #: quantum length assumed when projecting finish tags; defaults
        #: to the machine quantum at attach time.
        self._nominal_quantum = nominal_quantum

    @property
    def nominal_quantum(self) -> float:
        if self._nominal_quantum is not None:
            return self._nominal_quantum
        if self.machine is not None:
            return self.machine.quantum
        return 0.2

    def _expected_finish(self, task: Task):
        return self.tags.finish_tag(task.sched["S"], self.nominal_quantum, task.phi)

    def pick_next(self, cpu: int, now: float) -> Task | None:
        best: Task | None = None
        best_key = None
        for task in self.start_queue:
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (self._expected_finish(task), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best
