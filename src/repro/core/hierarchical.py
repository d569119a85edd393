"""Hierarchical surplus fair scheduling — the §5 open problem.

§5 of the paper: *"GPS-based schedulers such as SFQ can perform
hierarchical scheduling. This allows threads to be aggregated into
classes and CPU shares to be allocated on a per-class basis. [...] SFS
is a single-level scheduler and lacks such features. The design of
hierarchical schedulers for multiprocessor environments remains an
open research problem."*

This module implements the natural two-level SFS design:

- **Top level (classes).** Each scheduling class has a weight; classes
  carry start/finish tags and surpluses exactly like SFS threads, with
  one multiprocessor twist: a class with ``n`` runnable members can use
  at most ``min(n, p)`` processors, so its instantaneous share is
  capped at ``min(n, p)/p`` — the generalized water-filling of
  :func:`repro.core.weights.waterfill_shares` (the §2.1 readjustment is
  the ``n = 1`` special case).
- **Bottom level (members).** The class's bandwidth is distributed
  among its member threads by a class-specific policy (§5: "such
  schedulers support class-specific schedulers"): ``"sfq"`` (start-time
  fair queueing on member tags, weights respected within the class) or
  ``"rr"`` (round-robin).

A CPU is granted to the active class with the least class surplus
``alpha_c = phi_c (S_c - V)``; the class's policy then picks the member
thread.
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.weights import waterfill_shares
from repro.sim.costs import DecisionCostParams
from repro.sim.scheduler import Scheduler, require_bool
from repro.sim.task import Task, TaskState

__all__ = ["SchedulingClass", "HierarchicalSurplusFairScheduler"]

_POLICIES = ("sfq", "rr")


class SchedulingClass:
    """One aggregation class: weight, tags, members, child policy."""

    __slots__ = (
        "name",
        "weight",
        "policy",
        "phi",
        "start_tag",
        "finish_tag",
        "members",
        "fifo",
    )

    def __init__(self, name: str, weight: float, policy: str) -> None:
        if not 0 < weight < math.inf:
            raise ValueError(f"class weight must be finite and > 0, got {weight}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        self.name = name
        self.weight = weight
        self.policy = policy
        #: instantaneous share (water-filled); valid while active
        self.phi = weight
        self.start_tag = 0.0
        self.finish_tag = 0.0
        #: runnable members (tid -> Task)
        self.members: dict[int, Task] = {}
        #: round-robin order (used when policy == "rr")
        self.fifo: deque[Task] = deque()

    @property
    def active(self) -> bool:
        """A class competes for CPUs iff it has runnable members."""
        return bool(self.members)

    def local_virtual_time(self) -> float:
        """Minimum member start tag (the class's internal SFQ clock)."""
        if not self.members:
            return 0.0
        return min(t.sched.get("mS", 0.0) for t in self.members.values())

    def pick_member(self) -> Task | None:
        """Apply the class policy to choose the next member thread."""
        if self.policy == "rr":
            for task in self.fifo:
                if task.state is TaskState.RUNNABLE:
                    return task
            return None
        best: Task | None = None
        best_key: tuple | None = None
        for task in self.members.values():
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (task.sched.get("mS", 0.0), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SchedulingClass {self.name} w={self.weight} "
            f"members={len(self.members)} policy={self.policy}>"
        )


class HierarchicalSurplusFairScheduler(Scheduler):
    """Two-level SFS: classes by surplus, members by class policy.

    Usage::

        sched = HierarchicalSurplusFairScheduler()
        gold = sched.add_class("gold", weight=3)
        bronze = sched.add_class("bronze", weight=1, policy="rr")
        sched.assign(task, "gold")           # before machine.add_task
        machine = Machine(sched, cpus=2)

    Unassigned tasks fall into a weight-1 ``"default"`` class.
    """

    name = "H-SFS"

    decision_cost_params = DecisionCostParams(base=3.6e-6, per_thread=0.10e-6)

    def __init__(self, wake_preempt: bool = True) -> None:
        super().__init__()
        self.wake_preempt = require_bool("wake_preempt", wake_preempt)
        self._classes: dict[str, SchedulingClass] = {}
        self._task_class: dict[int, SchedulingClass] = {}
        self._vtime = 0.0
        self._last_finish = 0.0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def add_class(
        self, name: str, weight: float, policy: str = "sfq"
    ) -> SchedulingClass:
        """Register a scheduling class (before any of its tasks arrive)."""
        if name in self._classes:
            raise ValueError(f"class {name!r} already exists")
        cls = SchedulingClass(name, weight, policy)
        self._classes[name] = cls
        return cls

    def assign(self, task: Task, class_name: str) -> None:
        """Place ``task`` into a class (call before the task arrives)."""
        try:
            cls = self._classes[class_name]
        except KeyError:
            raise ValueError(f"unknown class {class_name!r}") from None
        self._task_class[task.tid] = cls

    def class_of(self, task: Task) -> SchedulingClass:
        cls = self._task_class.get(task.tid)
        if cls is None:
            cls = self._classes.get("default")
            if cls is None:
                cls = self.add_class("default", 1.0)
            self._task_class[task.tid] = cls
        return cls

    def classes(self) -> list[SchedulingClass]:
        """All registered classes (for introspection/tests)."""
        return list(self._classes.values())

    # ------------------------------------------------------------------
    # top-level tag machinery
    # ------------------------------------------------------------------

    def _active_classes(self) -> list[SchedulingClass]:
        return [c for c in self._classes.values() if c.active]

    def _refresh_vtime(self) -> None:
        active = self._active_classes()
        if active:
            self._vtime = min(c.start_tag for c in active)
        else:
            self._vtime = self._last_finish

    def _reshare(self) -> None:
        """Water-fill instantaneous class shares (the §2.1 analogue).

        A class with ``n`` runnable members can consume at most
        ``min(n, p)`` processors.
        """
        assert self.machine is not None
        active = self._active_classes()
        if not active:
            return
        p = self.machine.num_cpus
        caps = [min(len(c.members), p) / p for c in active]
        shares = waterfill_shares([c.weight for c in active], caps)
        for cls, share in zip(active, shares):
            cls.phi = max(share, 1e-12)

    def class_surplus(self, cls: SchedulingClass) -> float:
        """Eq. 4 applied at the class level."""
        return cls.phi * (cls.start_tag - self._vtime)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def _enter_member(self, task: Task, cls: SchedulingClass, fresh: bool) -> None:
        was_active = cls.active
        if not was_active:
            # Compute V *before* (re)activating the class: its own stale
            # start tag must not drag the virtual time backwards, or the
            # class would bank credit for its idle period.
            self._refresh_vtime()
            if fresh and cls.finish_tag == 0.0:
                cls.start_tag = self._vtime
            else:
                cls.start_tag = max(cls.finish_tag, self._vtime)
        if fresh:
            task.sched["mS"] = cls.local_virtual_time()
            task.sched["mF"] = task.sched["mS"]
        else:
            task.sched["mS"] = max(
                task.sched.get("mF", 0.0), cls.local_virtual_time()
            )
        cls.members[task.tid] = task
        cls.fifo.append(task)
        self._reshare()

    def on_arrival(self, task: Task, now: float) -> None:
        task.phi = task.weight
        self._enter_member(task, self.class_of(task), fresh=True)

    def on_wakeup(self, task: Task, now: float) -> None:
        self._enter_member(task, self.class_of(task), fresh=False)

    def _charge(self, task: Task, cls: SchedulingClass, ran: float) -> None:
        """Update member and class tags after a quantum of ``ran``."""
        task.sched["mF"] = task.sched.get("mS", 0.0) + ran / task.weight
        cls.finish_tag = cls.start_tag + ran / cls.phi
        cls.start_tag = cls.finish_tag
        self._last_finish = cls.finish_tag

    def _leave_member(self, task: Task, cls: SchedulingClass) -> None:
        cls.members.pop(task.tid, None)
        try:
            cls.fifo.remove(task)
        except ValueError:
            pass
        self._reshare()

    def on_block(self, task: Task, now: float, ran: float) -> None:
        cls = self.class_of(task)
        self._charge(task, cls, ran)
        self._leave_member(task, cls)

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        cls = self.class_of(task)
        if task.tid not in cls.members:
            # Exited while blocked: it left its class when it blocked.
            self._task_class.pop(task.tid, None)
            return
        if ran > 0:
            self._charge(task, cls, ran)
        self._leave_member(task, cls)
        self._task_class.pop(task.tid, None)

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        cls = self.class_of(task)
        self._charge(task, cls, ran)
        task.sched["mS"] = task.sched["mF"]
        if cls.policy == "rr":
            try:
                cls.fifo.remove(task)
            except ValueError:
                pass
            cls.fifo.append(task)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        task.phi = task.weight

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next(self, cpu: int, now: float) -> Task | None:
        self._refresh_vtime()
        ordered = sorted(
            self._active_classes(),
            key=lambda c: (self.class_surplus(c), c.name),
        )
        for cls in ordered:
            member = cls.pick_member()
            if member is not None:
                return member
        return None

    def choose_victim(self, task: Task, running, now: float) -> int | None:
        if not self.wake_preempt or not running:
            return None
        self._refresh_vtime()
        new_cls = self.class_of(task)
        new_surplus = self.class_surplus(new_cls)
        worst_cpu = None
        worst = None
        for cpu, victim in running.items():
            vcls = self.class_of(victim)
            elapsed = 0.0
            if self.machine is not None:
                proc = self.machine.processors[cpu]
                elapsed = max(0.0, now - proc.dispatch_time)
            s = self.class_surplus(vcls) + elapsed
            if vcls is new_cls:
                continue  # same class: no point migrating the quantum
            if worst is None or s > worst:
                worst = s
                worst_cpu = cpu
        if worst is not None and new_surplus < worst:
            return worst_cpu
        return None

    def runnable_tasks(self) -> list[Task]:
        out = []
        for cls in self._classes.values():
            out.extend(cls.members.values())
        return sorted(out, key=lambda t: t.tid)
