"""Run grids of independent scenario cells and yield them in grid order.

The paper's evaluation (§4) and the saturation, sensitivity and flows
studies are grids of independent simulation cells. :func:`stream_cells`
runs one and yields a :class:`~repro.scenario.sweep.SweepCell` per cell
in grid order, as soon as every earlier cell has been yielded;
:func:`run_cells` and :func:`run_sweep` collect it into a list.

- **In-process** when ``workers == 0`` or fewer than two cells are left
  to run. This is the reference a pooled run must match cell for cell,
  and the fallback when the platform cannot start subprocesses.
- **Process pool** otherwise, of ``min(cells, workers or
  os.cpu_count())`` processes behind a sliding window: cell *i* is
  submitted only while *i* is below the lowest unfinished index plus
  :data:`WINDOW_PER_WORKER` times the worker count. The window bounds
  the futures in flight and the finished cells held back for grid
  order. A pool that breaks mid-grid keeps every finished result and
  re-runs only the unfinished cells in-process.

**Checkpoint/resume.** With ``checkpoint=PATH`` every finished cell is
one flushed JSON line: ``index``, coordinates, metrics, ``wall_s`` and
a scenario fingerprint (``key``). A re-run with the same path replays
the cells in the file and runs only the rest. The file is validated
against the grid, so a line from a different grid fails loudly, even
one whose (scheduler, cpus, quantum) coordinates coincide; a torn final
line (a kill mid-write) is dropped with a warning and cut off before
new lines are appended. JSON round-trips floats exactly, so a replayed
cell equals the freshly computed one.

Closing the generator is the only cancel: it shuts the pool down,
cancelling the cells not yet started, and closes the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import IO, Any, Iterator, Sequence

from repro.scenario.result import check_metrics, summarize
from repro.scenario.runner import run_scenario
from repro.scenario.spec import Scenario
from repro.scenario.sweep import Sweep, SweepCell, sweep_scenarios

__all__ = [
    "CellJob",
    "WINDOW_PER_WORKER",
    "cell_from_json",
    "cell_to_json",
    "execute_job",
    "job_fingerprint",
    "load_checkpoint",
    "run_cells",
    "run_sweep",
    "stream_cells",
]

#: cells a pool may submit ahead of the lowest unfinished one, per
#: process: enough that one slow cell rarely idles the other workers,
#: few enough that a 10^4-cell grid holds a bounded number of futures
WINDOW_PER_WORKER = 32

#: pinned so fingerprints don't drift with the interpreter's default
_FINGERPRINT_PROTOCOL = 4


@dataclass(frozen=True)
class CellJob:
    """One cell of a grid: run ``scenario``, summarize ``metrics``.

    ``index`` is the cell's position in the grid, the key that restores
    grid order and matches checkpoint lines back to cells.
    """

    index: int
    scenario: Scenario
    metrics: tuple[str, ...]


def execute_job(job: CellJob) -> SweepCell:
    """Run one cell, in-process or in a pool worker.

    ``wall_s`` is the worker-side wall clock of the ``run_scenario``
    call, so events/sec means the same wherever the cell ran.
    """
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


def cell_to_json(cell: SweepCell) -> dict[str, Any]:
    """Flatten one SweepCell into a JSON-safe dict (checkpoint form)."""
    return {
        "index": cell.index,
        "scheduler": cell.scheduler,
        "cpus": cell.cpus,
        "quantum": cell.quantum,
        "metrics": dict(cell.metrics),
        "wall_s": cell.wall_s,
    }


def cell_from_json(payload: dict[str, Any]) -> SweepCell:
    """Rebuild a SweepCell from its JSON form.

    Python's JSON round-trips floats exactly (repr-based), so a cell
    loaded from a checkpoint compares equal to the freshly computed
    one.
    """
    return SweepCell(
        index=int(payload["index"]),
        scheduler=payload["scheduler"],
        cpus=int(payload["cpus"]),
        quantum=float(payload["quantum"]),
        metrics=payload["metrics"],
        wall_s=float(payload["wall_s"]),
    )


def job_fingerprint(job: CellJob) -> str:
    """A short digest of *everything* that determines a job's result.

    The checkpoint stores this per cell so that a stale file from a
    grid with the same (scheduler, cpus, quantum) coordinates but a
    different duration/population/seed/metrics is rejected instead of
    silently served. Pickle at a pinned protocol is deterministic for
    the plain-data scenarios this package runs; the worst a Python
    version bump can do is *reject* an old checkpoint (the safe
    direction).
    """
    payload = pickle.dumps((job.scenario, job.metrics), protocol=_FINGERPRINT_PROTOCOL)
    return hashlib.sha1(payload).hexdigest()[:12]


def load_checkpoint(path: str, jobs: Sequence[CellJob]) -> dict[int, SweepCell]:
    """Read a checkpoint file into ``{index: SweepCell}`` for ``jobs``.

    Raises ValueError when a line matches no job, disagrees with the
    job's coordinates, or fails the scenario fingerprint — the
    checkpoint belongs to a different grid. A line that fails to parse
    ends the scan with a warning: it is the torn tail of an
    interrupted write, and everything after it is untrustworthy.
    """
    return _scan_checkpoint(path, jobs)[0]


def _scan_checkpoint(
    path: str, jobs: Sequence[CellJob]
) -> tuple[dict[int, SweepCell], int]:
    """(completed cells, byte offset up to which the file is valid).

    The offset lets :func:`_open_checkpoint` truncate a torn file back
    to its valid prefix before appending — otherwise fresh lines would
    land *after* the tear, be ignored by every later scan, and the
    same cells would re-run on every resume while the file grew
    without bound.
    """
    by_index = {job.index: job for job in jobs}
    done: dict[int, SweepCell] = {}
    valid_bytes = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                valid_bytes += len(raw)
                continue
            try:
                payload = json.loads(line)
                cell = cell_from_json(payload)
            except (ValueError, KeyError, TypeError):
                warnings.warn(
                    f"checkpoint {path}:{lineno} is torn/corrupt; "
                    "ignoring it and the rest of the file",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            job = by_index.get(cell.index)
            if job is None:
                raise ValueError(
                    f"checkpoint {path}:{lineno} has cell index "
                    f"{cell.index}, which is not in this grid "
                    f"(size {len(jobs)}) — wrong checkpoint file?"
                )
            if (
                cell.scheduler != job.scenario.scheduler
                or cell.cpus != job.scenario.cpus
                or cell.quantum != job.scenario.quantum
            ):
                raise ValueError(
                    f"checkpoint {path}:{lineno} disagrees with the grid "
                    f"at index {cell.index}: file has "
                    f"({cell.scheduler}, {cell.cpus}, {cell.quantum}), "
                    f"grid has ({job.scenario.scheduler}, "
                    f"{job.scenario.cpus}, {job.scenario.quantum}) — "
                    "wrong checkpoint file?"
                )
            if payload.get("key") != job_fingerprint(job):
                raise ValueError(
                    f"checkpoint {path}:{lineno} fails the scenario "
                    f"fingerprint at index {cell.index}: the cell was "
                    "recorded for a different scenario or metric set "
                    "(same coordinates, different duration/population/"
                    "seed/...) — wrong checkpoint file?"
                )
            done[cell.index] = cell
            valid_bytes += len(raw)
    return done, valid_bytes


def _open_checkpoint(
    path: str, jobs: Sequence[CellJob]
) -> tuple[dict[int, SweepCell], IO[str]]:
    """The cells ``path`` already holds, and the file open for appending."""
    done: dict[int, SweepCell] = {}
    if os.path.exists(path):
        done, valid_bytes = _scan_checkpoint(path, jobs)
        if valid_bytes < os.path.getsize(path):
            # Cut the file back to its valid prefix so this run's
            # lines append where the next scan will read them.
            with open(path, "rb+") as fh:
                fh.truncate(valid_bytes)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return done, open(path, "a")


def _record(cell: SweepCell, job: CellJob, sink: IO[str] | None) -> SweepCell:
    """Append ``cell`` to the checkpoint as one flushed line; return it."""
    if sink is not None:
        record = cell_to_json(cell)
        record["key"] = job_fingerprint(job)
        sink.write(json.dumps(record))
        sink.write("\n")
        sink.flush()
    return cell


def _start_pool(processes: int) -> ProcessPoolExecutor | None:
    """A pool of ``processes`` workers, or None where none can start."""
    try:
        return ProcessPoolExecutor(max_workers=processes)
    except OSError as exc:
        # Restricted sandboxes surface missing subprocess support at
        # pool creation; degrade to in-process, loudly.
        warnings.warn(
            f"process pool unavailable ({exc!r}); running the "
            "grid serially in-process",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def stream_cells(
    scenarios: Sequence[Scenario],
    metrics: tuple[str, ...],
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> Iterator[SweepCell]:
    """Run ``scenarios`` as one grid; yield their cells in grid order.

    ``workers=None`` sizes the pool to the cells left to run, capped by
    the OS CPU count; ``workers=0`` runs every cell in-process.
    ``checkpoint`` names a JSONL file that makes the run resumable.
    Whatever the worker count, the cells equal the in-process ones in
    everything but ``wall_s``.
    """
    check_metrics(metrics)
    jobs = [
        CellJob(index=i, scenario=scenario, metrics=tuple(metrics))
        for i, scenario in enumerate(scenarios)
    ]
    # finished cells not yet yielded, by index (all >= next_index)
    finished: dict[int, SweepCell] = {}
    sink: IO[str] | None = None
    pool: ProcessPoolExecutor | None = None
    try:
        if checkpoint is not None:
            finished, sink = _open_checkpoint(checkpoint, jobs)
        todo = [job for job in jobs if job.index not in finished]
        if workers != 0 and len(todo) >= 2:
            processes = min(len(todo), workers or os.cpu_count() or 1)
            pool = _start_pool(processes)
            window = WINDOW_PER_WORKER * processes
        pending: dict[Future, CellJob] = {}
        submitted = 0
        next_index = 0
        while next_index < len(jobs):
            if next_index in finished:
                yield finished.pop(next_index)
                next_index += 1
                continue
            if pool is None:
                job = jobs[next_index]
                finished[job.index] = _record(execute_job(job), job, sink)
                continue
            broken: BaseException | None = None
            try:
                while (
                    submitted < len(todo)
                    and todo[submitted].index < next_index + window
                ):
                    job = todo[submitted]
                    pending[pool.submit(execute_job, job)] = job
                    submitted += 1
            except (OSError, BrokenProcessPool) as exc:
                # submit() fails only for the pool's own reasons; a
                # cell's error arrives through its future.
                broken = exc
            if broken is None:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                try:
                    for future in done:
                        # Only BrokenProcessPool means the pool died;
                        # any other exception is the cell's own and
                        # propagates.
                        job = pending.pop(future)
                        finished[job.index] = _record(future.result(), job, sink)
                except BrokenProcessPool as exc:
                    broken = exc
            if broken is not None:
                # Keep every result that finished before the pool died,
                # then run only the unfinished cells in-process.
                for future, job in pending.items():
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        finished[job.index] = _record(future.result(), job, sink)
                pending.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                unfinished = len(jobs) - next_index - len(finished)
                warnings.warn(
                    f"process pool died ({broken!r}); resuming the "
                    f"{unfinished} unfinished of {len(todo)} cells "
                    "serially in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if sink is not None:
            sink.close()


def run_cells(
    scenarios: Sequence[Scenario],
    metrics: tuple[str, ...],
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> list[SweepCell]:
    """Run a list of scenarios as one grid; cells come back in order.

    Grids that vary more than (scheduler, cpus, quantum), such as the
    saturation study's N x load x policy lattice, build their own
    scenario list and pass it here. See :func:`stream_cells`.
    """
    return list(
        stream_cells(scenarios, metrics, workers=workers, checkpoint=checkpoint)
    )


def run_sweep(
    sweep: Sweep,
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> list[SweepCell]:
    """Run every cell of ``sweep``; cells come back in grid order."""
    return run_cells(
        sweep_scenarios(sweep),
        tuple(sweep.metrics),
        workers=workers,
        checkpoint=checkpoint,
    )
