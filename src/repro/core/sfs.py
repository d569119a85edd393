"""Surplus Fair Scheduling (§2.3, §3.1-3.2 of the paper).

SFS approximates generalized multiprocessor sharing (GMS) with finite
quanta: at each scheduling instance it computes, for every runnable
thread, the *surplus*

.. math:: \\alpha_i = \\phi_i (S_i - v)                  \\qquad (Eq. 4)

— the service thread ``i`` has received beyond what the thread with the
least service has — and runs the thread with the smallest surplus.
Because the surplus depends only on the *start* tag, SFS does not need
to know the quantum length when it schedules, so quanta may end early
when threads block (a property the paper calls out explicitly).

§3.1's kernel keeps three sorted queues over the runnable threads —
descending user weight, ascending start tag, ascending surplus — and
recomputes every surplus and re-sorts the third queue whenever the
virtual time moves: O(n) work per decision. This implementation keeps
the second (the tagged base class's start-tag queue), needs no first
(the readjustment frontier groups the runnable set by user weight, and
nothing here reads a descending-weight order) and replaces the third
with a partition of the runnable set into **weight classes**: one
start-tag-ordered queue per distinct user weight.

Why that is exact: within a class every thread whose ``phi`` still
equals its user weight shares one ``phi > 0``, and for a fixed
``phi > 0`` the surplus is monotone in ``S`` — IEEE subtraction of the
same ``v`` and multiplication by the same positive ``phi`` are both
monotone, and so is the fixed-point variant's integer arithmetic. So a
class's start-tag order *is* its surplus order at every ``v``, and the
least ``(alpha, tid)`` over the whole runnable set is the least over

- each class's first schedulable member, plus the run of members right
  behind it whose surplus rounds to the same value (the lowest tid in
  that run wins the tie), and
- the few threads §2.1 readjusted (``phi != weight``: at most ``p - 1``
  capped threads, or every member when fewer than ``p`` are runnable),
  which the class walks skip and the pick evaluates directly.

A decision therefore costs O(C + p) surplus evaluations, with ``C`` the
number of distinct runnable weights, instead of a recompute over all
``n`` runnable threads plus a sort. Classes are keyed by user weight,
not by ``phi``, so readjustment never moves a thread between queues;
only a ``setweight()`` refiles it. The §3.1 surplus queue survives in
:mod:`repro.core.sfs_heuristic`, whose §3.2 scan windows need it.

Invariants maintained (checked by the test suite):

- ``alpha_i >= 0`` for every runnable thread;
- at least one runnable thread has ``alpha_i == 0`` (the one at ``v``);
- every pick equals the brute-force :meth:`exact_minimum_surplus_task`;
- on one processor SFS degenerates to SFQ (min surplus == min start tag).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from types import MappingProxyType
from typing import Mapping

from repro.core.fixed_point import TagArithmetic
from repro.core.tags import TaggedScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.runqueue import SortedTaskList
from repro.sim.task import Task, TaskState

__all__ = ["SurplusFairScheduler"]

_RUNNABLE = TaskState.RUNNABLE
#: the readjusted set when readjustment is off
_NO_TASKS: Mapping[int, Task] = MappingProxyType({})


def _start_tag(task: Task):
    return task.sched["S"]


class SurplusFairScheduler(TaggedScheduler):
    """The exact SFS algorithm (no decision heuristic).

    Parameters
    ----------
    tag_math:
        Float (default) or kernel fixed-point tag arithmetic.
    wake_preempt:
        Allow woken threads to preempt the running thread with the most
        current surplus (see ``TaggedScheduler.choose_victim``).
    readjust:
        Run weight readjustment at every runnable-set change. On by
        default — SFS is defined over feasible instantaneous weights;
        the off switch exists only for ablation experiments.
    affinity_bonus:
        §5 extension ("SFS currently ignores processor affinities"):
        when > 0, a CPU re-runs its previous thread if that thread's
        surplus is within ``affinity_bonus`` seconds of the minimum —
        trading a bounded fairness slack for cache locality (fewer
        migrations). 0 (default) is the paper's exact policy. Must be
        finite.
    """

    name = "SFS"

    # The paper's kernel cost, calibrated to Table 1 (≈4 us at a
    # 2-entry run queue) and Fig. 7's growth to ≈8 us at 50 processes.
    # The linear term models the kernel's amortized §3.2
    # surplus-update/re-sort, not this implementation's pick.
    decision_cost_params = DecisionCostParams(base=3.3e-6, per_thread=0.09e-6)

    def __init__(
        self,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
        readjust: bool = True,
        affinity_bonus: float = 0.0,
    ) -> None:
        if not (math.isfinite(affinity_bonus) and affinity_bonus >= 0):
            raise ValueError(
                f"affinity_bonus must be finite and >= 0, got {affinity_bonus!r}"
            )
        super().__init__(
            readjust=readjust, tag_math=tag_math, wake_preempt=wake_preempt
        )
        self.affinity_bonus = affinity_bonus
        #: dispatches that kept the CPU's previous thread thanks to the
        #: affinity bonus (instrumentation for the ablation bench)
        self.affinity_hits = 0
        #: user weight -> that class's runnable threads by ascending
        #: start tag (a class is dropped when its last member leaves)
        self._classes: dict[float, SortedTaskList] = {}
        #: instrumentation: pick_next invocations
        self.decision_count = 0

    # ------------------------------------------------------------------
    # queue maintenance via TaggedScheduler extension points
    # ------------------------------------------------------------------

    def _runnable_set_changed(self, task: Task, now: float) -> None:
        if task.tid in self._runnable:
            self._file(task)
        else:
            self._unfile(task)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        if task.tid in self._runnable:
            self._refile(task, old_weight)
        super().on_weight_change(task, old_weight, now)

    def _file(self, task: Task) -> None:
        """Index a thread that joined the runnable set."""
        queue = self._classes.get(task.weight)
        if queue is None:
            queue = SortedTaskList(key=_start_tag)
            self._classes[task.weight] = queue
        queue.add(task)

    def _unfile(self, task: Task) -> None:
        """Drop a thread that left the runnable set (if it was indexed)."""
        self._drop(task, task.weight)

    def _refile(self, task: Task, old_weight: float) -> None:
        """Move a runnable thread whose user weight changed."""
        self._drop(task, old_weight)
        self._file(task)

    def _drop(self, task: Task, weight: float) -> None:
        queue = self._classes.get(weight)
        if queue is not None and queue.discard(task) and not queue:
            del self._classes[weight]

    def _tags_updated(self, task: Task, now: float) -> None:
        # A preemption advanced this task's start tag.
        self._classes[task.weight].reposition(task)

    def _after_rebase(self, offset) -> None:
        # A rebase shifted every start tag: refresh the cached keys.
        for queue in self._classes.values():
            queue.resort_insertion()

    # ------------------------------------------------------------------
    # the scheduling decision
    # ------------------------------------------------------------------

    def _least_surplus(self) -> tuple[Task | None, float | int | None]:
        """The schedulable thread with the least ``(alpha, tid)``, and alpha.

        The readjusted threads, whose ``phi`` differs from their class
        weight, are evaluated directly. Each weight class is then walked
        from its head in ``(S, tid)`` order, which is its surplus order
        (module doc), passing over running and readjusted members:

        - the first member evaluated has the class's least surplus, so
          a class whose least surplus exceeds the best so far is done;
        - the walk goes on only while the surplus stays equal, because
          rounding can give a larger start tag the same surplus and a
          lower tid;
        - members sharing a start tag with one already evaluated tie on
          surplus with a larger tid, so their run is skipped in one
          bisect (same-instant arrival bursts).
        """
        surplus = self.tags.surplus
        v = self._vtime
        frontier = self.frontier
        readjusted = frontier.readjusted() if frontier is not None else _NO_TASKS
        best = best_alpha = best_tid = None
        for task in readjusted.values():
            if task.state is _RUNNABLE:
                alpha = surplus(task.phi, task.sched["S"], v)
                if (
                    best is None
                    or alpha < best_alpha
                    or (alpha == best_alpha and task.tid < best_tid)
                ):
                    best, best_alpha, best_tid = task, alpha, task.tid
        if len(readjusted) == len(self._runnable):
            return best, best_alpha  # equal-share mode: all evaluated above
        for queue in self._classes.values():
            keys, tasks = queue.sorted_view()
            least = None
            i, n = 0, len(tasks)
            while i < n:
                task = tasks[i]
                i += 1
                if task.state is not _RUNNABLE or task.tid in readjusted:
                    continue
                start = task.sched["S"]
                alpha = surplus(task.phi, start, v)
                if least is None:
                    least = alpha
                    if best is not None and alpha > best_alpha:
                        break
                elif alpha > least:
                    break
                if (
                    best is None
                    or alpha < best_alpha
                    or (alpha == best_alpha and task.tid < best_tid)
                ):
                    best, best_alpha, best_tid = task, alpha, task.tid
                if i < n and keys[i][0] == start:
                    queue.comparisons += n.bit_length()
                    i = bisect_right(keys, (start, math.inf), i)
        return best, best_alpha

    def pick_next(self, cpu: int, now: float) -> Task | None:
        self.decision_count += 1
        self._refresh_vtime()
        best, alpha = self._least_surplus()
        if best is None or self.affinity_bonus <= 0:
            return best
        return self._apply_affinity(cpu, best, alpha)

    def _apply_affinity(self, cpu: int, best: Task, best_alpha) -> Task:
        """§5 extension: keep the CPU's previous thread when near-tied.

        ``best_alpha`` is ``best``'s fresh Eq. 4 surplus; the previous
        thread's is computed against the same virtual time, so the
        bonus never admits a thread more than ``affinity_bonus`` past
        the fresh minimum.
        """
        assert self.machine is not None
        prev = self.machine.previous_task(cpu)
        if (
            prev is None
            or prev is best
            or prev.state is not TaskState.RUNNABLE
            or prev.tid not in self._runnable
        ):
            return best
        # Express the bonus in surplus units (works for float and
        # fixed-point tag arithmetic alike: surplus of a phi=1 thread
        # one bonus-length past the virtual time).
        bonus = self.tags.surplus(
            1.0,
            self.tags.finish_tag(self.tags.zero, self.affinity_bonus, 1.0),
            self.tags.zero,
        )
        if self.surplus_of(prev) <= best_alpha + bonus:
            self.affinity_hits += 1
            return prev
        return best

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------

    def surpluses(self) -> dict[int, float]:
        """Fresh Eq. 4 surpluses of all runnable threads, keyed by tid."""
        self._refresh_vtime()
        return {t.tid: self.surplus_of(t) for t in self._runnable.values()}

    def exact_minimum_surplus_task(self) -> Task | None:
        """The schedulable thread with the smallest fresh surplus.

        The brute-force O(n) oracle: ground truth for the heuristic's
        accuracy (Fig. 3), the auditor's ``surplus_order`` check and
        the differential tests of :meth:`pick_next`. Ties are broken by
        tid like the real decision path.
        """
        self._refresh_vtime()
        best: Task | None = None
        best_key = None
        for task in self._runnable.values():
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (self.surplus_of(task), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best
