"""The :class:`ExecutionBackend` protocol and its shared plumbing.

A backend answers one question: *given a list of independent cell
jobs, produce their* :class:`~repro.scenario.sweep.SweepCell` *results
as they finish*. Everything else — deterministic grid ordering,
metric summaries, CSV export — is layered on top by
:mod:`repro.scenario.sweep` and the CLI, so the three shipped backends
(:class:`~repro.exec.serial.SerialBackend`,
:class:`~repro.exec.pool.ProcessPoolBackend`,
:class:`~repro.exec.chunked.ChunkedBackend`) stay interchangeable:
same jobs in, same cells out, only the execution substrate differs.

The contract:

- ``submit(jobs)`` returns an iterator of cells **in completion
  order** (not job order). Consuming it lazily is what makes streaming
  export and bounded-memory 10^4-cell grids possible.
- ``cancel()`` asks an in-flight ``submit`` iteration to stop early;
  already-finished cells may still be yielded.
- ``close()`` releases pools/processes/files; idempotent. Backends are
  context managers (``close`` on exit).

Cells cross process boundaries and outlive runs, so this module also
defines the flat JSON codec (:func:`cell_to_json` /
:func:`cell_from_json`) used by the chunked checkpoint file — metric
values are restricted to JSON-safe scalars and flat dicts by
construction (see :func:`repro.scenario.result.summarize`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle: scenario.sweep
    from repro.scenario.spec import Scenario  # uses this package

__all__ = [
    "CellJob",
    "ExecutionBackend",
    "BackendBase",
    "execute_job",
    "cell_to_json",
    "cell_from_json",
]


@dataclass(frozen=True)
class CellJob:
    """One unit of backend work: run ``scenario``, summarize ``metrics``.

    ``index`` is the job's position in the caller's grid — the key the
    deterministic-reordering wrapper and the checkpoint file use to
    match results back to cells, whatever order they complete in.
    """

    index: int
    scenario: Scenario
    metrics: tuple[str, ...]


def execute_job(job: CellJob) -> Any:
    """Run one cell job; the single worker entry point of every backend.

    Returns a :class:`~repro.scenario.sweep.SweepCell` whose ``wall_s``
    is the *worker-side* wall clock of the ``run_scenario`` call — so
    events/sec stays meaningful no matter which backend executed the
    cell.
    """
    from repro.scenario.result import summarize
    from repro.scenario.runner import run_scenario
    from repro.scenario.sweep import SweepCell

    t0 = time.perf_counter()
    result = run_scenario(job.scenario)
    wall = time.perf_counter() - t0
    return SweepCell(
        index=job.index,
        scheduler=job.scenario.scheduler,
        cpus=job.scenario.cpus,
        quantum=job.scenario.quantum,
        metrics=summarize(result, job.metrics),
        wall_s=wall,
    )


def cell_to_json(cell: Any) -> dict[str, Any]:
    """Flatten one SweepCell into a JSON-safe dict (checkpoint form)."""
    return {
        "index": cell.index,
        "scheduler": cell.scheduler,
        "cpus": cell.cpus,
        "quantum": cell.quantum,
        "metrics": dict(cell.metrics),
        "wall_s": cell.wall_s,
    }


def cell_from_json(payload: dict[str, Any]) -> Any:
    """Rebuild a SweepCell from its JSON form.

    Python's JSON round-trips floats exactly (repr-based), so a cell
    loaded from a checkpoint compares equal to the freshly computed
    one — the property the backend-equivalence tests pin.
    """
    from repro.scenario.sweep import SweepCell

    return SweepCell(
        index=int(payload["index"]),
        scheduler=payload["scheduler"],
        cpus=int(payload["cpus"]),
        quantum=float(payload["quantum"]),
        metrics=payload["metrics"],
        wall_s=float(payload["wall_s"]),
    )


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the sweep layer needs from an execution substrate."""

    def submit(self, jobs: Sequence[CellJob]) -> Iterator[Any]:
        """Execute ``jobs``; yield SweepCells in completion order."""
        ...

    def cancel(self) -> None:
        """Stop an in-flight ``submit`` iteration as soon as possible."""
        ...

    def close(self) -> None:
        """Release every held resource; safe to call more than once."""
        ...


class BackendBase:
    """Shared cancel-flag + context-manager scaffolding for backends."""

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
