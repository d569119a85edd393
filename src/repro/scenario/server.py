"""The "server" scenario preset family: high-N open-arrival workloads.

The paper's evaluation (§4) uses small, hand-built populations — a few
``Inf`` loops, one short-job feeder, an lmbench ring. Capacity studies
in the spirit of Gunther's UNIX resource-manager work and multi-user
multiprocessor fairness models need the opposite: *thousands* of tasks
arriving as an open Poisson stream with heavy-tailed service demands
and mixed weight classes, the shape of a consolidated server's request
population.

:func:`server_scenario` builds exactly that as plain declarative data —
a :class:`~repro.scenario.spec.Scenario` whose task population is drawn
from a seeded PRNG, so the same (n, seed) pair is bit-for-bit
reproducible, picklable to sweep workers, and runnable under any
registered scheduler:

- **arrivals** are Poisson: exponential inter-arrival gaps at rate
  ``lambda = load * cpus / mean_service``, so ``load`` is the offered
  utilization of the machine;
- **service demands** are bounded Pareto (shape ``pareto_shape``, mean
  ``mean_service``, truncated at ``service_cap_factor * mean_service``)
  — heavy-tailed, like real request populations: most jobs are short,
  a few are enormous;
- **weights** are drawn from named classes (default: 70% "std" weight
  1, 20% "pro" weight 4, 10% "ent" weight 10), and tasks are named
  ``<class>-<index>`` so per-class aggregate shares fall out of
  ``result.group_service("pro-")``.

The family is the scaling proving ground for the hot-path work: run it
at N=5000 under the ``lmbench`` cost model and every accidentally-linear
scan in the simulator shows up as a wall-clock cliff
(``benchmarks/test_bench_scale.py`` tracks events/sec at
N ∈ {100, 1000, 5000}).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.scenario.arrivals import PoissonArrivals
from repro.scenario.demands import BoundedParetoDemand
from repro.scenario.families import register_family
from repro.scenario.population import generated_tasks
from repro.scenario.spec import Scenario

__all__ = [
    "SERVER_WEIGHT_CLASSES",
    "server_scenario",
    "class_shares",
    "busy_window_end",
]

#: default weight mix: (class name, weight, probability)
SERVER_WEIGHT_CLASSES: tuple[tuple[str, float, float], ...] = (
    ("std", 1.0, 0.70),
    ("pro", 4.0, 0.20),
    ("ent", 10.0, 0.10),
)


@register_family("server")
def server_scenario(
    n_tasks: int,
    cpus: int = 4,
    scheduler: str = "sfs",
    seed: int = 42,
    load: float = 0.85,
    mean_service: float = 0.05,
    pareto_shape: float = 1.5,
    service_cap_factor: float = 100.0,
    weight_classes: tuple[tuple[str, float, float], ...] = SERVER_WEIGHT_CLASSES,
    quantum: float = 0.05,
    cost_model: str = "zero",
    drain_factor: float = 1.5,
    sample_service: bool = True,
    service_sample_interval: float = 0.0,
    record_events: bool = False,
    metrics: tuple[str, ...] = (),
    scheduler_params: Mapping[str, Any] | None = None,
) -> Scenario:
    """Build a high-N open-arrival CPU workload (Poisson x Pareto) as data.

    The scenario is pure data and deterministic in ``seed``.

    Parameters
    ----------
    n_tasks:
        Number of jobs in the open arrival stream (the family is
        designed for 100 .. ~5000).
    load:
        Offered utilization of the machine (arrival rate is
        ``load * cpus / mean_service``). Below 1.0 the system drains;
        above 1.0 the runnable set grows without bound.
    pareto_shape:
        Tail index of the bounded-Pareto service distribution; must be
        > 1 so the mean exists. Smaller = heavier tail.
    drain_factor:
        The run lasts ``drain_factor`` times the arrival window, giving
        the backlog time to drain after the last arrival.
    record_events:
        Off by default — the GMS-replay event timeline is O(events) of
        memory, which high-N runs rarely want.
    scheduler_params:
        Per-run constructor overrides for the scheduler (e.g.
        ``{"scan_depth": 10, "track_accuracy": True}`` for
        ``sfs-heuristic``), forwarded to the registered policy class.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if load <= 0:
        raise ValueError(f"load must be > 0, got {load}")
    if mean_service <= 0:
        raise ValueError(f"mean_service must be > 0, got {mean_service}")
    if pareto_shape <= 1:
        raise ValueError(
            f"pareto_shape must be > 1 (finite mean), got {pareto_shape}"
        )
    if drain_factor < 1:
        raise ValueError(f"drain_factor must be >= 1, got {drain_factor}")
    probs = [p for _, _, p in weight_classes]
    if not probs or abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(
            f"weight-class probabilities must sum to 1, got {probs}"
        )

    # Poisson arrivals + bounded-Pareto demands from the registries.
    # Truncation pulls the realized mean slightly below mean_service,
    # which only nudges the effective load down — fine for a synthetic
    # family. generated_tasks preserves the historical per-task draw
    # order, so existing (n, seed) populations are bit-identical.
    specs = generated_tasks(
        n_tasks,
        arrival=PoissonArrivals(load * cpus / mean_service),
        demand=BoundedParetoDemand(
            mean_service, shape=pareto_shape, cap_factor=service_cap_factor
        ),
        weight_classes=weight_classes,
        seed=seed,
    )
    duration = specs[-1].at * drain_factor
    return Scenario(
        name=f"server-n{n_tasks}-{scheduler}-seed{seed}",
        scheduler=scheduler,
        scheduler_params=dict(scheduler_params or {}),
        cpus=cpus,
        quantum=quantum,
        cost_model=cost_model,
        duration=duration,
        tasks=tuple(specs),
        metrics=metrics,
        sample_service=sample_service,
        service_sample_interval=service_sample_interval,
        record_events=record_events,
    )


def busy_window_end(result) -> float:
    """End of the run's *busy* window: the last job completion.

    Falls back to the full duration when any declared job is still in
    the system at the end (overloaded runs, or a drain window too short
    to clear the backlog) — then the whole run is genuinely busy.
    """
    ends = [t.exit_time for t in result.tasks.values()]
    if not ends or any(e is None for e in ends):
        return result.duration
    return max(ends)


def class_shares(
    result,
    weight_classes=SERVER_WEIGHT_CLASSES,
    window: str = "busy",
) -> dict[str, float]:
    """Aggregate machine share per weight class of a finished run.

    ``weight_classes`` names the classes as ``(name, weight, share)``
    triples; ``None`` reports the classes of the run's
    :attr:`~repro.scenario.result.SimulationResult.class_table`
    instead, in name order, as the ``class_shares`` canned metric does.
    A class's service is that of its tasks named ``"<name>-..."``,
    summed once over that class's tasks in the table, so ``None``
    leaves out a class whose only task is named ``"<name>"`` itself
    (``editor`` beside ``batch-1``...).

    ``window="busy"`` (default) normalizes by capacity up to the last
    job completion, so the reported shares are invariant to how much
    idle padding ``drain_factor`` appends after the backlog clears.
    The old behaviour — dividing by capacity over the *full* duration,
    which shrinks every share as ``drain_factor`` grows — is available
    as ``window="full"``. A window that ends at 0 offered no capacity
    and delivered no service, so every share is 0.0.
    """
    if window == "busy":
        end = busy_window_end(result)
    elif window == "full":
        end = result.duration
    else:
        raise ValueError(
            f"window must be 'busy' or 'full', got {window!r}"
        )
    table = result.class_table
    if weight_classes is None:
        names = [
            cls for cls, group in table.groups.items()
            if any(name != cls for name in group)
        ]
    else:
        names = [name for name, _, _ in weight_classes]
    capacity = result.capacity(0.0, end)
    if capacity <= 0.0:
        return dict.fromkeys(names, 0.0)
    return {name: table.service(f"{name}-") / capacity for name in names}
