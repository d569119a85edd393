"""Task (thread/process) model for the SMP simulator.

A :class:`Task` corresponds to what the paper calls a *thread*: the unit
of CPU scheduling. Each task carries

- the user-assigned **weight** ``w_i`` (requested share; §2 of the paper),
- the **instantaneous weight** ``phi_i`` as computed by the weight
  readjustment algorithm (§2.1) — equal to ``w_i`` whenever the
  assignment is feasible,
- a :class:`~repro.sim.events.Segment`-producing *behaviour* describing
  what the task does (compute, block, exit), and
- accounting fields maintained by the machine (CPU service received,
  state, last CPU for affinity modelling, ...).

Scheduler-private per-task state (start tags, finish tags, counters,
passes, ...) lives in the ``sched`` dict so several schedulers can be
driven over identical workloads without interference.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Behavior

__all__ = ["Task", "TaskState", "MIN_WEIGHT", "MAX_WEIGHT"]

_tid_counter = itertools.count(1)

#: Bounds on a user weight. Any 10**8 weights in range sum to far less
#: than the float range, and one quantum ``q`` moves a finish tag by at
#: most ``q * 1e100``. Nearer the float limits the exact readjustment
#: total overflows a float (weights near 1e308), or one quantum turns a
#: finish tag into inf (subnormal weights).
MIN_WEIGHT = 1e-100
MAX_WEIGHT = 1e100


def _check_weight(weight: float) -> None:
    # One comparison chain rejects <= 0, NaN, inf and the extremes alike.
    if not MIN_WEIGHT <= weight <= MAX_WEIGHT:
        raise ValueError(
            f"weight must be in [{MIN_WEIGHT:g}, {MAX_WEIGHT:g}], got {weight}"
        )


class TaskState(enum.Enum):
    """Lifecycle states of a task, mirroring a kernel thread."""

    NEW = "new"  # created but not yet arrived
    RUNNABLE = "runnable"  # on the run queue, not currently on a CPU
    RUNNING = "running"  # currently executing on a CPU
    BLOCKED = "blocked"  # sleeping / waiting on I/O
    EXITED = "exited"  # terminated


class Task:
    """A schedulable thread.

    Parameters
    ----------
    behavior:
        The workload behaviour generating Run/Block/Exit segments.
    weight:
        The user-assigned weight ``w_i``, in
        [:data:`MIN_WEIGHT`, :data:`MAX_WEIGHT`].
        Shares are proportional to weights across runnable tasks.
    name:
        Human-readable label used in traces and rendered figures.
    footprint_kb:
        Working-set size in KB (finite, >= 0); drives the
        cache-restoration component of the context-switch cost model
        (Table 1 / Fig. 7).
    ts_priority:
        Priority in ticks for the Linux 2.2 time-sharing baseline
        (default 20 ticks = 200 ms, the 2.2 default "nice 0").
    """

    __slots__ = (
        "tid",
        "name",
        "_weight",
        "phi",
        "behavior",
        "footprint_kb",
        "ts_priority",
        "state",
        "service",
        "arrival_time",
        "first_dispatch_time",
        "exit_time",
        "last_cpu",
        "remaining_run",
        "sched",
        "series",
        "block_count",
        "preempt_count",
        "dispatch_count",
    )

    def __init__(
        self,
        behavior: "Behavior",
        weight: float = 1.0,
        name: str | None = None,
        footprint_kb: float = 0.0,
        ts_priority: int = 20,
    ) -> None:
        _check_weight(weight)
        if not 0 <= footprint_kb < math.inf:  # rejects NaN too
            raise ValueError(
                f"footprint_kb must be finite and >= 0, got {footprint_kb}"
            )
        self.tid: int = next(_tid_counter)
        self.name: str = name if name is not None else f"task{self.tid}"
        self._weight: float = float(weight)
        #: instantaneous weight (phi_i); maintained by weight readjustment
        self.phi: float = float(weight)
        self.behavior = behavior
        self.footprint_kb = float(footprint_kb)
        self.ts_priority = int(ts_priority)

        self.state: TaskState = TaskState.NEW
        #: total CPU service received, in seconds
        self.service: float = 0.0
        self.arrival_time: float | None = None
        #: time the task first got a CPU (None until first dispatch) —
        #: drives the scheduling-latency metrics capacity studies quote
        self.first_dispatch_time: float | None = None
        self.exit_time: float | None = None
        self.last_cpu: int | None = None
        #: remaining CPU time in the current Run segment (inf = forever)
        self.remaining_run: float = 0.0
        #: scheduler-private per-task state (tags, counters, ...)
        self.sched: dict[str, Any] = {}
        #: sampled (time, cumulative service) points, if sampling enabled.
        #: One point per charge boundary by default; under the machine's
        #: decimated mode (``service_sample_interval > 0``) points are
        #: dropped between intervals, so the curve is approximate while
        #: ``self.service`` stays exact.
        self.series: list[tuple[float, float]] = []
        self.block_count: int = 0
        self.preempt_count: int = 0
        self.dispatch_count: int = 0

    @property
    def weight(self) -> float:
        """The user-assigned weight ``w_i``."""
        return self._weight

    @weight.setter
    def weight(self, value: float) -> None:
        _check_weight(value)
        self._weight = float(value)

    @property
    def sojourn_time(self) -> float | None:
        """Arrival-to-completion response time, or None until exited.

        The per-job metric saturation/capacity studies report as
        percentiles ("sojourn" in the queueing literature): queueing
        delay plus all service and blocking episodes. None for jobs
        still in the system (or that never arrived).
        """
        if self.exit_time is None or self.arrival_time is None:
            return None
        return self.exit_time - self.arrival_time

    @property
    def first_dispatch_latency(self) -> float | None:
        """Arrival-to-first-CPU delay, or None if never dispatched."""
        if self.first_dispatch_time is None or self.arrival_time is None:
            return None
        return self.first_dispatch_time - self.arrival_time

    @property
    def is_runnable(self) -> bool:
        """True if the task is on the run queue or on a CPU."""
        return self.state in (TaskState.RUNNABLE, TaskState.RUNNING)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.name} tid={self.tid} w={self._weight} phi={self.phi:.4g} "
            f"{self.state.value} service={self.service:.4f}>"
        )
