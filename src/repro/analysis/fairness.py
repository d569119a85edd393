"""Fairness metrics against the GMS ideal.

The paper's yardstick for a multiprocessor proportional-share scheduler
is Eq. 3: the *surplus* of a thread is its service minus what GMS would
have granted it. These helpers quantify how far a simulated run strays
from the fluid ideal and detect the pathologies of §1.2:

- :func:`gms_deviation` — per-thread ``A_i - A_i^GMS`` via trace replay;
- :func:`max_relative_unfairness` — the worst pairwise violation of
  Eq. 2 over a window, normalized per second;
- :func:`starvation_intervals` — maximal intervals during which a
  continuously runnable thread received no service (Example 1's
  symptom: thread 1 starves for 900 quanta);
- :func:`jains_index` — Jain's fairness index over weighted service.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.gms import replay_trace
from repro.sim.machine import Machine
from repro.sim.metrics import service_between
from repro.sim.task import Task

__all__ = [
    "gms_deviation",
    "max_relative_unfairness",
    "starvation_intervals",
    "longest_starvation",
    "jains_index",
]


def gms_deviation(machine: Machine, t_end: float | None = None) -> dict[int, float]:
    """Per-tid Eq. 3 surplus: actual service minus GMS-replay service.

    Positive values mean the thread got more than its fluid share;
    ideally every magnitude stays within a few quanta.
    """
    t = machine.now if t_end is None else t_end
    ideal = replay_trace(
        machine.trace.event_tuples(),
        machine.num_cpus,
        t,
        assume_sorted=True,  # recorded traces are in time order
    )
    out: dict[int, float] = {}
    for task in machine.tasks:
        out[task.tid] = task.service - ideal.get(task.tid, 0.0)
    return out


def max_relative_unfairness(tasks: Sequence[Task], t0: float, t1: float) -> float:
    """Worst pairwise |A_i/phi_i - A_j/phi_j| over [t0, t1), per second.

    Eq. 2 says this should approach zero for continuously runnable
    threads with fixed instantaneous weights; finite quanta make it
    O(quantum) instead. Uses each task's *current* phi, so callers
    should restrict the window to an interval of fixed weights.
    """
    if t1 <= t0:
        return 0.0
    normalized = [service_between(t, t0, t1) / t.phi for t in tasks]
    if not normalized:
        return 0.0
    return (max(normalized) - min(normalized)) / (t1 - t0)


def starvation_intervals(
    task: Task, t0: float, t1: float, resolution: float = 0.1
) -> list[tuple[float, float]]:
    """Maximal sub-intervals of [t0, t1) in which the task made no
    progress (service flat), sampled at ``resolution``.

    Only meaningful for tasks that are continuously runnable over the
    window (the caller's responsibility — e.g. the Inf apps of Fig. 4).
    """
    if t1 <= t0:
        return []
    from repro.sim.metrics import service_at

    intervals: list[tuple[float, float]] = []
    start: float | None = None
    steps = int((t1 - t0) / resolution)
    prev_service = service_at(task, t0)
    for i in range(1, steps + 1):
        t = t0 + i * resolution
        s = service_at(task, t)
        if s - prev_service <= 1e-12:
            if start is None:
                start = t - resolution
        else:
            if start is not None:
                intervals.append((start, t - resolution))
                start = None
        prev_service = s
    if start is not None:
        intervals.append((start, t0 + steps * resolution))
    return intervals


def longest_starvation(
    task: Task, t0: float, t1: float, resolution: float = 0.1
) -> float:
    """Length of the longest no-progress interval in [t0, t1)."""
    intervals = starvation_intervals(task, t0, t1, resolution)
    if not intervals:
        return 0.0
    return max(b - a for a, b in intervals)


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 is fair.

    Apply to weighted services ``A_i / phi_i`` to measure proportional
    fairness across threads.
    """
    xs = [max(0.0, v) for v in values]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0:
        return 1.0
    return (total * total) / (len(xs) * squares)
