"""Start/finish-tag and virtual-time machinery shared by SFQ and SFS.

Both start-time fair queueing (the paper's principal baseline) and
surplus fair scheduling maintain per-thread *start tags* ``S_i`` and
*finish tags* ``F_i`` updated per Eqs. 5-6 of the paper:

- when a thread runs for ``q`` seconds, ``F_i = S_i + q / phi_i``;
- a continuously runnable thread's next start tag is ``F_i``;
- a thread that just woke up gets ``S_i = max(F_i, v)`` so that
  sleeping never accumulates credit;
- a newly arrived thread gets ``S_i = v``;
- the *virtual time* ``v`` is the minimum start tag over runnable
  threads, holds at the last finish tag when the system goes idle, and
  starts at zero.

:class:`TaggedScheduler` implements all of this on top of the machine's
hook points, maintains a start-tag index (one of the paper's three
queues, §3.1: a sorted queue here, one queue per weight class in exact
SFS), optionally maintains the §2.1 weight readjustment at every
runnable-set change, and optionally uses kernel-style fixed-point tag
arithmetic with wrap-around rebasing (§3.2). Concrete policies (SFQ's
min-start-tag rule, SFS's min-surplus rule) subclass it.

``v`` is kept current rather than re-derived at every read. A join
never lowers it: an arrival starts at ``v`` and a wakeup at
``max(F, v)``. The one join that raises it is a wakeup into an empty
runnable set, whose start tag becomes ``v``. Otherwise only the thread
holding ``v`` can move it, by leaving the runnable set or by a
preemption advancing its start tag to its finish tag, so ``v`` is
re-read from the index's head only when the thread that left or moved
had ``S == v``. A wrap-around rebase shifts ``v`` with every tag.

Readjustment is driven *incrementally*: instead of re-running the full
descending-weight scan over the whole runnable set per event (O(n) —
the dominant cost at high N once the runqueues went logarithmic), the
scheduler feeds runnable-set deltas to a
:class:`~repro.core.weights.ReadjustmentFrontier`, which groups the
runnable threads by user weight, repairs the cap point with dict work
plus at most ``p`` per-class tests per event, and produces
bit-identical ``phi`` values to the batch oracle
(:meth:`TaggedScheduler.verify_readjustment` asserts this; so do the
hypothesis model tests).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.fixed_point import FloatTags, TagArithmetic
from repro.core.weights import ReadjustmentFrontier, readjust
from repro.sim.runqueue import SortedTaskList
from repro.sim.scheduler import Scheduler, require_bool
from repro.sim.task import Task, TaskState

__all__ = ["TaggedScheduler"]


class TaggedScheduler(Scheduler):
    """Base class for virtual-time (tag-based) schedulers.

    Parameters
    ----------
    readjust:
        Maintain the §2.1 weight readjustment at every arrival,
        departure, block, wakeup and weight change (incrementally, via
        the feasibility frontier), keeping ``task.phi`` current. SFS
        always enables this; for the GPS baselines it is the experiment
        knob of Fig. 4.
    tag_math:
        Tag arithmetic strategy (float reference or kernel fixed point).
    wake_preempt:
        Whether a newly runnable thread may preempt a running one with a
        worse tag/surplus (Linux ``reschedule_idle()`` semantics).
    """

    name = "tagged"

    def __init__(
        self,
        readjust: bool = False,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
    ) -> None:
        super().__init__()
        if tag_math is not None and not isinstance(tag_math, TagArithmetic):
            raise ValueError(
                f"tag_math must be None or a TagArithmetic, got {tag_math!r}"
            )
        self.readjust = require_bool("readjust", readjust)
        #: incremental §2.1 frontier (created at attach; needs num_cpus)
        self.frontier: ReadjustmentFrontier | None = None
        self.tags: TagArithmetic = tag_math if tag_math is not None else FloatTags()
        #: whether the tag arithmetic can wrap at all (``FloatTags``
        #: never rebases), decided once so float runs skip the check
        self._rebases = type(self.tags).needs_rebase is not TagArithmetic.needs_rebase
        self.wake_preempt = require_bool("wake_preempt", wake_preempt)
        #: start-tag index of the runnable tasks (RUNNABLE + RUNNING);
        #: exact SFS installs its weight classes here instead
        self.start_queue = SortedTaskList(key=lambda t: t.sched["S"])
        self._runnable: dict[int, Task] = {}
        #: every live task this scheduler has tags for (incl. blocked) —
        #: needed so a wrap-around rebase can shift *all* tags coherently
        self._tagged: dict[int, Task] = {}
        self._vtime = self.tags.zero
        self._last_finish = self.tags.zero
        #: count of rebase operations performed (wrap-around handling)
        self.rebase_count = 0

    def attach(self, machine) -> None:
        super().attach(machine)
        if self.readjust:
            self.frontier = ReadjustmentFrontier(machine.num_cpus)

    # ------------------------------------------------------------------
    # virtual time
    # ------------------------------------------------------------------

    @property
    def virtual_time(self):
        """Current virtual time ``v`` (min start tag; see module doc)."""
        return self._vtime

    def _refresh_vtime(self) -> None:
        """Re-derive ``v`` from the head of the start-tag index."""
        head = self.start_queue.head()
        self._vtime = head.sched["S"] if head is not None else self._last_finish

    # ------------------------------------------------------------------
    # hook implementations
    # ------------------------------------------------------------------

    def on_arrival(self, task: Task, now: float) -> None:
        task.sched["S"] = self._vtime
        task.sched["F"] = self._vtime
        self._runnable[task.tid] = task
        self._tagged[task.tid] = task
        self.start_queue.add(task)
        if self.frontier is not None:
            self.frontier.add(task)
        else:
            task.phi = task.weight
        self._runnable_set_changed(task, now)

    def on_wakeup(self, task: Task, now: float) -> None:
        s = task.sched.get("F", self._vtime)
        task.sched["S"] = max(s, self._vtime)
        if not self._runnable:
            # Waking into an empty set: F may exceed the last finish tag.
            self._vtime = task.sched["S"]
        self._runnable[task.tid] = task
        self.start_queue.add(task)
        if self.frontier is not None:
            self.frontier.add(task)
        else:
            task.phi = task.weight
        self._runnable_set_changed(task, now)

    def on_block(self, task: Task, now: float, ran: float) -> None:
        self._finish_quantum(task, ran)
        self._remove_runnable(task)
        if self.frontier is not None:
            self.frontier.remove(task)
        self._runnable_set_changed(task, now)

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        if task.tid not in self._runnable:
            # Exited while blocked: only its tags are left to drop.
            self._tagged.pop(task.tid, None)
            return
        if ran > 0:
            self._finish_quantum(task, ran)
        self._remove_runnable(task)
        self._tagged.pop(task.tid, None)
        if self.frontier is not None:
            self.frontier.remove(task)
        self._runnable_set_changed(task, now)

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        self._finish_quantum(task, ran)
        # Continuously runnable: next start tag is the finish tag (Eq. 6).
        sched = task.sched
        # sfs-lint: disable=SFS005 (bit identity: did this thread hold v)
        held = sched["S"] == self._vtime
        sched["S"] = sched["F"]
        # Reposition before re-reading v from the index's head, and
        # refresh v before _tags_updated, which may read it.
        self.start_queue.reposition(task)
        if held:
            self._refresh_vtime()
        if self._rebases:
            self._maybe_rebase()
        self._tags_updated(task, now)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        if self.frontier is None:
            task.phi = task.weight
        elif task.is_runnable:
            # Blocked tasks are not frontier members; their phi is
            # re-derived on wakeup from the then-current weight.
            self.frontier.reweight(task, old_weight)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def _finish_quantum(self, task: Task, ran: float) -> None:
        """Apply Eq. 5 after a quantum of length ``ran`` (may be 0)."""
        sched = task.sched
        f = self.tags.finish_tag(sched["S"], ran, task.phi)
        sched["F"] = f
        self._last_finish = f

    def _remove_runnable(self, task: Task) -> None:
        self._runnable.pop(task.tid, None)
        self.start_queue.discard(task)
        # sfs-lint: disable=SFS005 (bit identity: did this thread hold v)
        if task.sched["S"] == self._vtime:
            self._refresh_vtime()
        if self._rebases:
            self._maybe_rebase()

    def verify_readjustment(self) -> None:
        """Assert frontier phis equal the batch §2.1 oracle (test hook).

        Runs :func:`repro.core.weights.readjust` over a snapshot of the
        runnable weights — without touching any task — and demands
        bit-identical agreement with the incrementally maintained phis.
        """
        if self.frontier is None or self.machine is None:
            return
        tasks = list(self._runnable.values())
        expected = readjust([t.weight for t in tasks], self.machine.num_cpus)
        for task, phi in zip(tasks, expected):
            # sfs-lint: disable=SFS005 (oracle agreement is bit-exact by construction)
            if task.phi != phi:
                raise AssertionError(
                    "frontier phi diverged from batch oracle for "
                    f"{task.name}: {task.phi!r} != {phi!r}"
                )

    def _maybe_rebase(self) -> None:
        """Wrap-around handling (§3.2): shift all tags down by ``v``."""
        offset = self._vtime
        if not self.tags.needs_rebase(offset):
            return
        shift = self.tags.shift
        for task in self._tagged.values():
            task.sched["S"] = shift(task.sched["S"], offset)
            task.sched["F"] = shift(task.sched["F"], offset)
        self._last_finish = shift(self._last_finish, offset)
        self.start_queue.resort_insertion()
        self._vtime = shift(offset, offset)
        self.rebase_count += 1
        self._after_rebase(offset)

    # ------------------------------------------------------------------
    # subclass extension points
    # ------------------------------------------------------------------

    def _runnable_set_changed(self, task: Task, now: float) -> None:
        """Called after a runnable thread arrives, wakes, blocks or exits.

        ``task.tid in self._runnable`` tells a join from a departure.
        The exit of a blocked thread is not reported: it left the set
        when it blocked. Weight changes go through
        :meth:`on_weight_change` instead.
        """

    def _tags_updated(self, task: Task, now: float) -> None:
        """Called after a preemption updated a task's tags."""

    def _after_rebase(self, offset) -> None:
        """Called after a wrap-around rebase shifted all tags."""

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def runnable_tasks(self) -> list[Task]:
        return [self._runnable[tid] for tid in sorted(self._runnable)]

    def _first_schedulable(self, queue: SortedTaskList) -> Task | None:
        """First task in ``queue`` not currently on a CPU."""
        for task in queue:
            if task.state is TaskState.RUNNABLE:
                return task
        return None

    def _running_elapsed(self, cpu: int, now: float) -> float:
        """Seconds the task on ``cpu`` has been running (for victim choice)."""
        assert self.machine is not None
        proc = self.machine.processors[cpu]
        return max(0.0, now - proc.dispatch_time)

    def surplus_of(self, task: Task, vtime=None):
        """Eq. 4 surplus of a task against the given (or current) v."""
        v = self._vtime if vtime is None else vtime
        return self.tags.surplus(task.phi, task.sched["S"], v)

    def choose_victim(
        self, task: Task, running: Mapping[int, Task], now: float
    ) -> int | None:
        """Default wakeup-preemption rule for tag-based schedulers.

        Preempt the CPU whose thread has consumed the most *current*
        surplus — its Eq. 4 surplus plus the service received in the
        quantum so far — provided the woken thread's surplus is strictly
        smaller. Subclasses may override with policy-specific rules.
        """
        if not self.wake_preempt or not running:
            return None
        finish_tag = self.tags.finish_tag
        surplus = self.tags.surplus
        processors = self.machine.processors
        v = self._vtime
        new_surplus = surplus(task.phi, task.sched["S"], v)
        worst_cpu: int | None = None
        worst_surplus = None
        for cpu, victim in running.items():
            # Surplus including the service consumed so far this quantum
            # (project the start tag forward by the elapsed run time).
            elapsed = max(0.0, now - processors[cpu].dispatch_time)
            projected = finish_tag(victim.sched["S"], elapsed, victim.phi)
            current = surplus(victim.phi, projected, v)
            if worst_surplus is None or current > worst_surplus:
                worst_surplus = current
                worst_cpu = cpu
        if worst_surplus is not None and new_surplus < worst_surplus:
            return worst_cpu
        return None
