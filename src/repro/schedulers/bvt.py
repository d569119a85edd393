"""Borrowed virtual time (BVT) [Duda & Cheriton, SOSP'99].

BVT is SFQ plus a latency knob: each thread has an *actual* virtual
time ``A`` (advanced by ``ran / phi`` like a start tag) and runs with
*effective* virtual time ``E = A - warp`` when warping is enabled.
Latency-sensitive threads are given a positive warp so that on wakeup
they temporarily jump ahead of the pack and run promptly, "borrowing"
against their future allocation.

With every warp at 0 the policy is exactly SFQ — the paper notes "BVT
reduces to SFQ when the latency parameter is set to zero", which is a
property test in this repository. Like the other GPS instantiations it
inherits SFQ's multiprocessor pathologies and accepts ``readjust=True``.

Use :meth:`set_warp` to assign a per-thread warp (seconds of virtual
time).
"""

from __future__ import annotations

from repro.core.fixed_point import TagArithmetic
from repro.core.tags import TaggedScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.task import Task, TaskState

__all__ = ["BorrowedVirtualTimeScheduler"]


class BorrowedVirtualTimeScheduler(TaggedScheduler):
    """SFQ with per-thread warp for latency-sensitive threads."""

    name = "BVT"

    decision_cost_params = DecisionCostParams(base=0.85e-6, per_thread=0.03e-6)

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
            self.name = "BVT+readjust"
        self._warps: dict[int, float] = {}

    def set_warp(self, task: Task, warp: float) -> None:
        """Assign a warp (virtual seconds of head start on wakeup)."""
        if warp < 0:
            raise ValueError(f"warp must be >= 0, got {warp}")
        self._warps[task.tid] = warp

    def warp_of(self, task: Task) -> float:
        return self._warps.get(task.tid, 0.0)

    def _effective(self, task: Task):
        return task.sched["S"] - self.warp_of(task)

    def pick_next(self, cpu: int, now: float) -> Task | None:
        best: Task | None = None
        best_key = None
        for task in self.start_queue:
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (self._effective(task), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best
