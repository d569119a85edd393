"""The §3.2 bounded-scan decision heuristic for SFS.

The paper's exact kernel recomputes every runnable thread's surplus
whenever the virtual time advances — O(t log t) with run-queue length
``t``. (That premise describes the paper's kernel, not
:mod:`repro.core.sfs`, whose weight-class pick is exact at O(C + p)
per decision.) The heuristic caps the kernel's cost: *"the thread with
the minimum surplus typically has either a small weight, a small start
tag, or a small surplus in the previous scheduling instance"*, so
examining the first ``k`` threads of each of the three queues (the
weight queue backwards, since it is sorted descending), computing
fresh surpluses only for those, and picking the minimum is almost
always right. Fig. 3 shows k = 20 yields > 99 % accuracy on a
quad-processor with up to 400 runnable threads.

Full surplus refreshes still happen, but only every ``refresh_every``
decisions ("infrequent updates and sorting are still required to
maintain a high accuracy of the heuristic"), making the per-decision
cost constant. Three details keep the decision path genuinely bounded
under overload (runnable sets in the thousands):

- when the ≤ 3k-thread window holds only *running* threads (possible
  whenever ``k`` is small relative to the processor count), the scan
  **widens geometrically** — doubling ``k`` until a runnable thread
  appears — instead of degrading to a full O(n) exact scan. At most
  ``p`` threads can be running, so one or two doublings always
  suffice; the worst case is O(p + k), never O(n);
- an explicit ``setweight()`` or a tag wrap-around rebase invalidates
  the surplus queue's stored order *structurally* (phis rescale
  surpluses; fixed-point shifts may round), so the next decision
  forces a full refresh immediately rather than trusting a stale order
  for up to ``refresh_every`` more decisions;
- the periodic refresh is one fused recompute-and-rebuild (one pass
  computing fresh surpluses, one timsort): O(n log n) guaranteed even
  though after ``refresh_every`` decisions of drift the queue arrives
  arbitrarily scrambled — insertion sort's quadratic case, which is
  why the §3.2 insertion re-sort is not used here.

This module therefore owns all three of §3.1's queues in place of
exact SFS's weight classes: descending user weight, a single ascending
start-tag queue (the start-tag index its window reads), and ascending
surplus as of each thread's last refresh.

Set ``track_accuracy=True`` to have every decision also compute the
exact minimum-surplus thread and record whether the heuristic matched —
this regenerates Fig. 3 (and the saturation study's accuracy-vs-k
curve on the server family).
"""

from __future__ import annotations

from repro.core.fixed_point import TagArithmetic
from repro.core.sfs import SurplusFairScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.runqueue import SortedTaskList
from repro.sim.scheduler import require_bool
from repro.sim.task import Task, TaskState

__all__ = ["HeuristicSurplusFairScheduler"]


def _require_count(name: str, value) -> None:
    """Reject anything but an integer >= 1 (bools included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class HeuristicSurplusFairScheduler(SurplusFairScheduler):
    """SFS with the bounded three-queue scan of §3.2.

    Parameters
    ----------
    scan_depth:
        ``k`` — threads examined per queue (paper: 20 suffices).
    refresh_every:
        Decisions between full surplus recomputations/re-sorts.
        Weight changes and tag rebases force an immediate refresh
        regardless (the stored order is structurally stale, not merely
        drifted).
    track_accuracy:
        Also compute the exact decision each time and count matches
        (a pick is a *match* when its fresh surplus equals the true
        minimum — picking a tied thread counts, as in the paper).
    """

    name = "SFS-heuristic"

    # Constant decision cost: the scan depth bounds the work.
    decision_cost_params = DecisionCostParams(base=3.5e-6, per_thread=0.0)

    def __init__(
        self,
        scan_depth: int = 20,
        refresh_every: int = 50,
        track_accuracy: bool = False,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
        readjust: bool = True,
    ) -> None:
        _require_count("scan_depth", scan_depth)
        _require_count("refresh_every", refresh_every)
        super().__init__(
            tag_math=tag_math, wake_preempt=wake_preempt, readjust=readjust
        )
        self.scan_depth = scan_depth
        self.refresh_every = refresh_every
        self.track_accuracy = require_bool("track_accuracy", track_accuracy)
        #: §3.1 queue 2, in place of exact SFS's weight classes: the
        #: window reads one start-tag order across all weights
        self.start_queue = SortedTaskList(key=lambda t: t.sched["S"])
        #: §3.1 queue 1: runnable threads by descending user weight, in
        #: the ``(-w, tid)`` order the window's tail slice reads (the
        #: readjustment frontier groups by weight but keeps no order
        #: within a class)
        self.weight_queue = SortedTaskList(key=lambda t: -t.weight)
        #: §3.1 queue 3: runnable threads by ascending surplus, as of
        #: each thread's last refresh (arrival, preemption or the
        #: periodic full recompute)
        self.surplus_queue = SortedTaskList(key=lambda t: t.sched["alpha"])
        #: instrumentation: full surplus recomputations (resorts)
        self.resort_count = 0
        self._since_refresh = 0
        #: surplus-queue order invalidated structurally (setweight /
        #: rebase) — force a full refresh at the next decision
        self._order_stale = False
        #: decisions where the heuristic had a real choice to make
        self.tracked_decisions = 0
        #: decisions whose pick had the true minimum surplus
        self.tracked_matches = 0
        #: widening rounds taken because a window held only running
        #: threads (the fixed fallback path; used to be a full O(n) scan)
        self.widened_scans = 0
        #: full refreshes forced by weight changes / rebases rather
        #: than the refresh_every cadence
        self.forced_refreshes = 0

    @property
    def accuracy(self) -> float:
        """Fraction of tracked decisions that matched the exact pick."""
        if self.tracked_decisions == 0:
            return 1.0
        return self.tracked_matches / self.tracked_decisions

    # ------------------------------------------------------------------
    # queue 1 and queue 3 upkeep (the base hooks keep queue 2);
    # structural order invalidation forces a refresh
    # ------------------------------------------------------------------

    def _runnable_set_changed(self, task: Task, now: float) -> None:
        if task.tid in self._runnable:
            self.weight_queue.add(task)
            task.sched["alpha"] = self.surplus_of(task)
            self.surplus_queue.add(task)
        else:
            self.weight_queue.discard(task)
            self.surplus_queue.discard(task)

    def _refile(self, task: Task, old_weight: float) -> None:
        self.weight_queue.reposition(task)
        # Readjustment may rescale *several* phis; surpluses scale with
        # phi, so the stored order is invalid, not just drifted.
        # Refresh at the next decision.
        self._order_stale = True

    def _tags_updated(self, task: Task, now: float) -> None:
        # A preemption advanced this task's start tag; its surplus grew.
        task.sched["alpha"] = self.surplus_of(task)
        self.surplus_queue.reposition(task)

    def _after_rebase(self, offset) -> None:
        # Surpluses are invariant under a common tag shift in exact
        # arithmetic, but fixed-point shifts round — refreshing once is
        # cheap insurance against a silently reordered queue.
        self._order_stale = True

    def _recompute_surpluses(self) -> None:
        """Refresh every stored surplus and re-sort queue 3.

        One pass computes the fresh surpluses, and one
        :meth:`~repro.sim.runqueue.SortedTaskList.rebuild_sorted` call
        sorts them: keys are unique (tid tie-break), so any sort gives
        the same order.
        """
        v = self._vtime
        surplus = self.tags.surplus
        keyed = []
        append = keyed.append
        for task in self.surplus_queue:
            alpha = surplus(task.phi, task.sched["S"], v)
            task.sched["alpha"] = alpha
            append(((alpha, task.tid), task))
        self.surplus_queue.rebuild_sorted(keyed)
        self.resort_count += 1

    # ------------------------------------------------------------------
    # the bounded decision scan
    # ------------------------------------------------------------------

    def _scan_window(self, depth: int) -> tuple[Task | None, float | None]:
        """Min-fresh-surplus runnable thread in the depth-``k`` window.

        One tight pass over the three window slices. Threads appearing
        in several windows are scanned more than once — harmless for a
        minimum, and cheaper than deduplicating: this loop runs per
        scheduling decision, so set bookkeeping and tuple keys are real
        costs at N=5000 overload.
        """
        surplus = self.tags.surplus
        v = self._vtime
        runnable = TaskState.RUNNABLE
        best: Task | None = None
        best_alpha: float | None = None
        best_tid = 0
        for window in (
            self.start_queue.peek_n(depth),
            self.weight_queue.peek_tail_n(depth),  # smallest weights
            self.surplus_queue.peek_n(depth),
        ):
            for task in window:
                if task.state is not runnable:
                    continue
                alpha = surplus(task.phi, task.sched["S"], v)
                if (
                    best is None
                    or alpha < best_alpha
                    or (alpha == best_alpha and task.tid < best_tid)
                ):
                    best = task
                    best_alpha = alpha
                    best_tid = task.tid
        return best, best_alpha

    def pick_next(self, cpu: int, now: float) -> Task | None:
        self.decision_count += 1
        self._since_refresh += 1
        if self._order_stale or self._since_refresh >= self.refresh_every:
            if self._order_stale:
                self.forced_refreshes += 1
            self._recompute_surpluses()
            self._since_refresh = 0
            self._order_stale = False
        k = self.scan_depth
        best, best_alpha = self._scan_window(k)
        total = len(self.surplus_queue)
        while best is None and k < total:
            # The window held only running threads. At most p threads
            # can be running, so widening geometrically finds a runnable
            # one (if any exists) in O(p + k) — the old fallback ran the
            # exact O(n) scan here, the very cost the heuristic exists
            # to avoid.
            k = min(total, k * 2)
            self.widened_scans += 1
            best, best_alpha = self._scan_window(k)
        if self.track_accuracy and best is not None:
            exact = self.exact_minimum_surplus_task()
            if exact is not None:
                self.tracked_decisions += 1
                # best_alpha is best's fresh surplus from the scan —
                # no need to recompute it per decision.
                # sfs-lint: disable=SFS005 (bit-identity agreement counter vs exact scan)
                if best_alpha == self.surplus_of(exact):
                    self.tracked_matches += 1
        return best
