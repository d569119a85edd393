"""Pluggable execution backends for scenario grids.

One small protocol — :class:`~repro.exec.base.ExecutionBackend`:
``submit(jobs) -> iterator of SweepCell in completion order``, plus
``cancel``/``close`` — with three shipped implementations:

- :class:`~repro.exec.serial.SerialBackend` — in-process, in-order;
  the reference every other backend must match cell-for-cell;
- :class:`~repro.exec.pool.ProcessPoolBackend` — the classic local
  process pool, now resuming only *unfinished* cells when the pool
  breaks mid-grid;
- :class:`~repro.exec.chunked.ChunkedBackend` — bounded-memory
  chunked streaming with a JSONL checkpoint file, making 10^4-cell
  grids survivable (kill it, re-run it, completed cells replay from
  the file).

:func:`make_backend` is the one place that chooses which of them runs
a grid, from the ``--backend``/``--workers``/``--checkpoint`` options
the CLI and ``run_cells`` accept. Whatever the backend,
``run_sweep``/``run_cells`` return cell lists identical to the serial
reference — the equivalence is pinned by hypothesis model tests.

**Checkpoint/resume** (:class:`~repro.exec.chunked.ChunkedBackend`).
Every finished cell is one flushed JSON line — ``index``, coordinates,
metrics, ``wall_s``, plus a scenario fingerprint. On resume the file is
validated against the grid: a checkpoint from a *different* grid fails
loudly, even one whose (scheduler, cpus, quantum) coordinates coincide
but whose duration/population/seed/metrics differ, and a torn final
line (kill mid-write) is dropped with a warning. Completed cells replay
from the file bit-for-bit (JSON round-trips floats exactly); only the
remainder executes.
"""

from __future__ import annotations

from repro.exec.base import (
    BackendBase,
    CellJob,
    ExecutionBackend,
    cell_from_json,
    cell_to_json,
    execute_job,
)
from repro.exec.chunked import (
    DEFAULT_CHUNK_SIZE,
    ChunkedBackend,
    job_fingerprint,
    load_checkpoint,
)
from repro.exec.pool import ProcessPoolBackend
from repro.exec.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "BackendBase",
    "CellJob",
    "ChunkedBackend",
    "DEFAULT_CHUNK_SIZE",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "cell_from_json",
    "cell_to_json",
    "execute_job",
    "job_fingerprint",
    "load_checkpoint",
    "make_backend",
]

#: the ``--backend`` names (see :func:`make_backend`)
BACKENDS = ("serial", "process", "chunked")


def make_backend(
    backend: str | ExecutionBackend | None = None,
    workers: int | None = None,
    checkpoint: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
) -> ExecutionBackend:
    """Choose the backend that runs a grid of ``n_jobs`` cells.

    ``backend`` is a name from :data:`BACKENDS`, ``None`` (a local
    process pool, like ``"process"``), or a ready-made instance, which
    is returned unchanged. The rules, in order:

    - ``"serial"`` means ``workers=0``;
    - a ``checkpoint`` (or ``"chunked"``) gives a
      :class:`ChunkedBackend`, the only backend that writes one;
    - ``workers=0`` or a single-cell grid runs serially in-process;
    - anything else runs on a :class:`ProcessPoolBackend`.

    An instance cannot take a ``checkpoint`` — it would not write one,
    and a run meant to be resumable would silently not be — so that
    combination raises ValueError; give a :class:`ChunkedBackend` its
    own ``checkpoint`` instead.
    """
    if backend is not None and not isinstance(backend, str):
        if checkpoint is not None:
            raise ValueError(
                f"checkpoint={checkpoint!r} cannot apply to a ready-made "
                f"{type(backend).__name__}; pass a backend name, or "
                "ChunkedBackend(checkpoint=...)"
            )
        return backend
    if backend is not None and backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
    if backend == "serial":
        workers = 0
    if checkpoint is not None or backend == "chunked":
        return ChunkedBackend(
            workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
        )
    if workers == 0 or (n_jobs is not None and n_jobs <= 1):
        return SerialBackend()
    return ProcessPoolBackend(workers=workers)
