"""Service lag: windowed deviation from the GMS fluid ideal.

Eq. 2 bounds hold *per interval*, so a scalar end-of-run deviation can
hide transient unfairness (a thread starved for 10 s then repaid looks
fine at the end). These helpers compute the **lag curve** — actual
minus fluid-GMS service as a function of time — and its extremes, which
is how the fairness of a practical scheduler is normally characterized
against its fluid reference.

Each helper reads one replay of the recorded runnable-set timeline,
which samples every task it is asked about at once: a report over n
tasks costs one replay, not n.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.gms import FluidGMS
from repro.sim import tracing
from repro.sim.machine import Machine
from repro.sim.metrics import service_at
from repro.sim.task import Task

__all__ = ["lag_curve", "max_absolute_lag", "lag_report"]


def _lag_samples(
    machine: Machine, tasks: Sequence[Task], t0: float, t1: float, step: float
) -> Iterator[tuple[float, list[float]]]:
    """Yield ``(t, [actual - GMS service of each task])`` every ``step``."""
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not machine.trace.record_events:
        raise ValueError(
            "lag replays the recorded event timeline: build the machine "
            "with record_events=True"
        )
    gms = FluidGMS(machine.num_cpus)
    events = sorted(machine.trace.events, key=lambda e: e.time)
    idx = 0
    t = t0
    while t <= t1 + 1e-9:
        while idx < len(events) and events[idx].time <= t:
            ev = events[idx]
            if ev.kind in (tracing.ARRIVE, tracing.WAKE):
                gms.arrive(ev.tid, ev.weight, ev.time)
            elif ev.kind in (tracing.BLOCK, tracing.EXIT):
                gms.depart(ev.tid, ev.time)
            elif ev.kind == tracing.WEIGHT:
                gms.set_weight(ev.tid, ev.weight, ev.time)
            idx += 1
        gms.advance_to(min(t, t1))
        yield t, [service_at(task, t) - gms.service_of(task.tid) for task in tasks]
        t += step


def lag_curve(
    machine: Machine, task: Task, t0: float, t1: float, step: float = 0.1
) -> list[tuple[float, float]]:
    """(time, actual - GMS service) for one task, sampled every ``step``.

    Requires event recording and service sampling (machine defaults).
    Positive lag = the task is ahead of its fluid entitlement.
    """
    return [(t, lags[0]) for t, lags in _lag_samples(machine, [task], t0, t1, step)]


def max_absolute_lag(
    machine: Machine, task: Task, t0: float, t1: float, step: float = 0.1
) -> float:
    """Worst |lag| of ``task`` over the window — the fairness bound."""
    curve = lag_curve(machine, task, t0, t1, step)
    return max((abs(v) for _, v in curve), default=0.0)


def lag_report(
    machine: Machine, t0: float, t1: float, step: float = 0.1
) -> dict[str, float]:
    """Max |lag| per task name over the window, for every task."""
    worst = [0.0] * len(machine.tasks)
    for _, lags in _lag_samples(machine, machine.tasks, t0, t1, step):
        worst = [max(w, abs(lag)) for w, lag in zip(worst, lags)]
    return {task.name: w for task, w in zip(machine.tasks, worst)}
