"""Cartesian policy x machine sweeps over one base scenario.

A :class:`Sweep` expands a base :class:`~repro.scenario.spec.Scenario`
into the cartesian product of scheduler names, CPU counts and quantum
lengths, in deterministic grid order (scheduler-major, then cpus, then
quantum). A :class:`SweepCell` holds one grid point's coordinates and
metrics. This module is data only: :func:`repro.exec.run_sweep` runs
the grid, in-process or on a process pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.scenario.result import check_metrics
from repro.scenario.spec import Scenario

__all__ = ["Sweep", "SweepCell", "sweep_scenarios"]


@dataclass(frozen=True)
class Sweep:
    """A policy x parameter grid over one base scenario.

    Empty axes inherit the base scenario's value, so a sweep with only
    ``schedulers`` set is a pure policy comparison. ``metrics`` names
    the canned summaries (see :data:`repro.scenario.result.METRICS`)
    each cell reports; unknown names are rejected at construction, not
    after the first N=5000 cell has already run.
    """

    base: Scenario
    schedulers: tuple[str, ...] = ()
    cpus: tuple[int, ...] = ()
    quanta: tuple[float, ...] = ()
    metrics: tuple[str, ...] = ("shares", "jains")

    def __post_init__(self) -> None:
        check_metrics(self.metrics)


@dataclass(frozen=True)
class SweepCell:
    """One grid point's coordinates and measured metrics.

    ``wall_s`` is the worker-side wall-clock of the cell's
    ``run_scenario`` call — with the ``events_fired`` metric it yields
    events/sec, the throughput number the saturation studies chart.
    """

    index: int
    scheduler: str
    cpus: int
    quantum: float
    metrics: Mapping[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0


def sweep_scenarios(sweep: Sweep) -> list[Scenario]:
    """Expand the grid into per-cell scenarios, in deterministic order."""
    schedulers = sweep.schedulers or (sweep.base.scheduler,)
    cpus = sweep.cpus or (sweep.base.cpus,)
    quanta = sweep.quanta or (sweep.base.quantum,)
    cells = []
    for scheduler, ncpus, quantum in itertools.product(schedulers, cpus, quanta):
        cells.append(
            sweep.base.with_(
                name=f"{sweep.base.name}[{scheduler}/cpus={ncpus}/q={quantum:g}]",
                scheduler=scheduler,
                # Base constructor params only make sense for the base
                # policy; a different swept policy gets its defaults.
                scheduler_params=(
                    sweep.base.scheduler_params
                    if scheduler == sweep.base.scheduler
                    else {}
                ),
                cpus=ncpus,
                quantum=quantum,
            )
        )
    return cells
