"""Scheduler interface for the simulated SMP machine.

The machine invokes the scheduler at exactly the points the paper's
Linux implementation hooks (§3.1): thread arrival, wakeup, block,
departure, quantum expiry, and explicit weight changes — and quanta on
different processors are *not* synchronized, so each CPU independently
asks for the next thread when its current one blocks or is preempted.

Concrete schedulers (SFS in :mod:`repro.core.sfs`, the baselines in
:mod:`repro.schedulers`) subclass :class:`Scheduler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.sim.costs import DecisionCostParams
from repro.sim.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

__all__ = ["Scheduler", "require_bool"]


def require_bool(name: str, value: object) -> bool:
    """Return ``value`` if it is a bool; raise ``ValueError`` naming ``name``.

    Constructor flags such as ``readjust`` and ``wake_preempt`` arrive
    from scenario configs too, where ``"no"`` or ``3`` would otherwise
    pass as truthy and run silently with the flag on.
    """
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


class Scheduler:
    """Abstract scheduler driven by machine hook calls.

    Subclasses must implement :meth:`pick_next`; hook methods default to
    no-ops so simple policies stay simple. All hooks receive the current
    simulation time; hooks that fire when a thread leaves a CPU also
    receive ``ran``, the CPU time the thread consumed in the quantum
    just ended (the ``q`` of Eq. 5 — note it varies when threads block
    before quantum expiry).
    """

    #: human-readable policy name (used in traces and figure legends)
    name: str = "abstract"

    #: analytic decision-cost parameters (see repro.sim.costs); the
    #: machine consults these when its cost model includes decision cost.
    decision_cost_params = DecisionCostParams()

    def __init__(self) -> None:
        self.machine: "Machine | None" = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind this scheduler to a machine. Called once by the machine."""
        if self.machine is not None:
            raise RuntimeError(f"{self.name} scheduler is already attached")
        self.machine = machine

    # -- hooks (machine -> scheduler) --------------------------------------

    def on_arrival(self, task: Task, now: float) -> None:
        """A brand-new task became runnable."""

    def on_wakeup(self, task: Task, now: float) -> None:
        """A blocked task became runnable again."""

    def on_block(self, task: Task, now: float, ran: float) -> None:
        """The task left a CPU because it blocked (ran for ``ran`` s)."""

    def on_preempt(self, task: Task, now: float, ran: float) -> None:
        """The task left a CPU but remains runnable (quantum expiry or
        forced preemption)."""

    def on_exit(self, task: Task, now: float, ran: float) -> None:
        """The task terminated.

        ``ran`` is 0 if the task exited without ever running again. An
        exit is reported for every task the scheduler has seen, also
        one that ends while blocked (its behaviour ends on wakeup, or
        it is killed); such a task is no longer runnable, so only its
        per-task state is left to drop.
        """

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        """The user changed the task's weight (setweight syscall, §3.1)."""

    # -- decisions (scheduler -> machine) -----------------------------------

    def pick_next(self, cpu: int, now: float) -> Task | None:
        """Return the next task to run on ``cpu``, or None to idle.

        Must return a task in RUNNABLE state (never one currently
        RUNNING on another CPU). Work-conserving schedulers return a
        task whenever any is runnable.
        """
        raise NotImplementedError

    def choose_victim(
        self, task: Task, running: Mapping[int, Task], now: float
    ) -> int | None:
        """Wakeup preemption: pick a CPU whose current task should yield
        to the newly runnable ``task``, or None to let it wait.

        Mirrors Linux 2.2's ``reschedule_idle()``: invoked only when no
        CPU is idle. The default is no wakeup preemption.
        """
        return None

    def quantum_for(self, task: Task, cpu: int, now: float) -> float | None:
        """Time slice to grant the dispatched task, or None for the
        machine default. The Linux time-sharing baseline returns its
        remaining counter here."""
        return None

    # -- introspection ------------------------------------------------------

    def decision_cost(self, runnable_count: int) -> float:
        """Modelled cost (seconds) of one pick-next decision."""
        return self.decision_cost_params.cost(runnable_count)

    def runnable_tasks(self) -> list[Task]:
        """Snapshot of tasks this scheduler currently considers runnable.

        Subclasses should override; used by invariant checks in tests.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name}>"
