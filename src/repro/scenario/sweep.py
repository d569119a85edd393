"""Cartesian policy x machine sweeps over one base scenario.

A :class:`Sweep` expands a base :class:`~repro.scenario.spec.Scenario`
into the cartesian product of scheduler names, CPU counts and quantum
lengths, runs every cell through
:func:`~repro.scenario.runner.run_scenario`, and returns one
:class:`SweepCell` per grid point **in deterministic grid order**
(scheduler-major, then cpus, then quantum) regardless of how many
worker processes executed them.

Execution is delegated to a pluggable
:class:`~repro.exec.ExecutionBackend` (serial, process pool, or chunked
streaming with a resume checkpoint), chosen by
:func:`repro.exec.make_backend`; this module is the thin
deterministic-reordering wrapper over the backend's completion-order
iterator. :func:`run_sweep` / :func:`run_cells` keep their historical
signatures — ``workers=None`` auto-sizes a local pool, ``workers=0``
forces serial execution — so existing callers and golden outputs are
untouched; new callers pick a backend by name or instance and may
stream cells incrementally via :func:`stream_cells`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.exec import DEFAULT_CHUNK_SIZE, CellJob, ExecutionBackend, make_backend
from repro.scenario.result import check_metrics
from repro.scenario.spec import Scenario

__all__ = [
    "Sweep",
    "SweepCell",
    "run_sweep",
    "run_cells",
    "stream_cells",
    "sweep_scenarios",
    "cells_in_grid_order",
]


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


def cells_in_grid_order(cells: Iterable[SweepCell]) -> Iterator[SweepCell]:
    """Reorder a completion-order cell stream into grid (index) order.

    Yields cell ``i`` as soon as every cell ``< i`` has been yielded,
    holding out-of-order arrivals in a small buffer — so a streaming
    consumer (incremental CSV export, a progress table) still sees
    deterministic order without waiting for the whole grid. The buffer
    is bounded by the completion skew (in practice: the worker count /
    chunk size), not the grid size.
    """
    pending: dict[int, SweepCell] = {}
    next_index = 0
    for cell in cells:
        pending[cell.index] = cell
        while next_index in pending:
            yield pending.pop(next_index)
            next_index += 1
    # A cancelled/failed backend may leave gaps; flush what remains in
    # index order rather than dropping it.
    for index in sorted(pending):
        yield pending[index]


def stream_cells(
    scenarios: Sequence[Scenario],
    metrics: tuple[str, ...],
    workers: int | None = None,
    backend: str | ExecutionBackend | None = None,
    checkpoint: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[SweepCell]:
    """Run scenarios through a backend; yield cells in grid order.

    The streaming core of :func:`run_cells`: cells are yielded
    incrementally (in deterministic grid order, buffering only the
    completion skew), so a 10^4-cell grid can flush to CSV/JSONL as it
    runs instead of materialising every result first. ``backend`` is a
    name from :data:`repro.exec.BACKENDS`, a ready-made
    :class:`~repro.exec.ExecutionBackend` instance (which the caller
    keeps and closes), or ``None`` for the historical pool-or-serial
    behaviour; ``checkpoint`` makes the run resumable and
    ``chunk_size`` bounds the in-flight cells (both see
    :class:`~repro.exec.ChunkedBackend`; ``chunk_size`` is ignored by
    backends that don't chunk). :func:`repro.exec.make_backend` makes
    the choice.
    """
    check_metrics(metrics)
    jobs = [
        CellJob(index=i, scenario=scenario, metrics=tuple(metrics))
        for i, scenario in enumerate(scenarios)
    ]
    resolved = make_backend(backend, workers, checkpoint, chunk_size, len(jobs))
    try:
        yield from cells_in_grid_order(resolved.submit(jobs))
    finally:
        if resolved is not backend:
            resolved.close()


def run_sweep(
    sweep: Sweep,
    workers: int | None = None,
    backend: str | ExecutionBackend | None = None,
    checkpoint: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SweepCell]:
    """Run every cell of the grid; results come back in grid order.

    ``workers=None`` sizes the default pool to the grid (capped by the
    OS CPU count); ``workers=0`` forces serial in-process execution.
    ``backend``/``checkpoint``/``chunk_size`` select any other
    execution backend — see :func:`stream_cells`.
    """
    return run_cells(
        sweep_scenarios(sweep),
        tuple(sweep.metrics),
        workers=workers,
        backend=backend,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )


def run_cells(
    scenarios: Sequence[Scenario],
    metrics: tuple[str, ...],
    workers: int | None = None,
    backend: str | ExecutionBackend | None = None,
    checkpoint: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[SweepCell]:
    """Run an arbitrary list of scenarios through an execution backend.

    The generalization :func:`run_sweep` is built on: grids that vary
    more than (scheduler, cpus, quantum) — e.g. the saturation study's
    N x load x policy lattice, where each cell is a *different*
    ``server_scenario`` population — build their own scenario list and
    feed it here. Results come back in input order whatever backend
    executed them; every backend yields cell lists identical to
    :class:`~repro.exec.SerialBackend` (modulo ``wall_s``).
    """
    return list(
        stream_cells(
            scenarios,
            metrics,
            workers=workers,
            backend=backend,
            checkpoint=checkpoint,
            chunk_size=chunk_size,
        )
    )
