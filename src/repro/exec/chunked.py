"""Bounded-memory chunked streaming with a JSONL resume checkpoint.

``ProcessPoolBackend`` submits the whole grid up front: fine for a few
hundred cells, but a 10^4-cell lattice materialises 10^4 futures (and,
with ``pool.map``, 10^4 buffered results) before the caller sees the
first one. :class:`ChunkedBackend` instead partitions the job list
into chunks of ``chunk_size``, keeps only one chunk in flight, and
yields each cell the moment it finishes — memory is bounded by the
chunk, not the grid.

Every finished cell is also appended (one JSON line, flushed) to an
optional **checkpoint file**. If the run is killed — OOM, preemption,
ctrl-C — re-running with the same checkpoint path skips every cell
that already has a line: completed work is yielded straight from the
file and only the remainder executes. The checkpoint is validated
against the grid (index/scheduler/cpus/quantum must match), so a stale
file from a *different* grid fails loudly instead of silently serving
wrong results; a torn final line (the crash happened mid-write) is
dropped with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from typing import Any, Iterator, Sequence

from repro.exec.base import BackendBase, CellJob, cell_from_json, cell_to_json

__all__ = ["ChunkedBackend", "job_fingerprint", "load_checkpoint"]

DEFAULT_CHUNK_SIZE = 64

#: pinned so fingerprints don't drift with the interpreter's default
_FINGERPRINT_PROTOCOL = 4


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


def load_checkpoint(path: str, jobs: Sequence[CellJob]) -> dict[int, Any]:
    """Read a checkpoint file into ``{index: SweepCell}`` for ``jobs``.

    Raises ValueError when a line matches no job, disagrees with the
    job's coordinates, or fails the scenario fingerprint — the
    checkpoint belongs to a different grid. A line that fails to parse
    ends the scan with a warning: it is the torn tail of an
    interrupted write, and everything after it is untrustworthy.
    """
    return _scan_checkpoint(path, jobs)[0]


def _scan_checkpoint(path: str, jobs: Sequence[CellJob]) -> tuple[dict[int, Any], int]:
    """(completed cells, byte offset up to which the file is valid).

    The offset lets :class:`ChunkedBackend` truncate a torn file back
    to its valid prefix before appending — otherwise fresh lines would
    land *after* the tear, be ignored by every later scan, and the
    same cells would re-run on every resume while the file grew
    without bound.
    """
    by_index = {job.index: job for job in jobs}
    done: dict[int, Any] = {}
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


class ChunkedBackend(BackendBase):
    """Stream a grid chunk-by-chunk, checkpointing each finished cell.

    ``workers`` is forwarded to the per-chunk process pool (0 forces
    serial in-process execution — chunking and checkpointing still
    apply). ``checkpoint=None`` gives plain bounded-memory streaming
    with no resume file.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        checkpoint: str | None = None,
    ) -> None:
        super().__init__()
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.checkpoint = checkpoint
        self._inner: Any = None
        #: cells served from the checkpoint instead of re-executed
        self.resumed = 0

    def submit(self, jobs: Sequence[CellJob]) -> Iterator[Any]:
        jobs = list(jobs)
        done: dict[int, Any] = {}
        if self.checkpoint and os.path.exists(self.checkpoint):
            done, valid_bytes = _scan_checkpoint(self.checkpoint, jobs)
            if valid_bytes < os.path.getsize(self.checkpoint):
                # Cut the file back to its valid prefix so this run's
                # lines append where the next scan will read them.
                with open(self.checkpoint, "rb+") as fh:
                    fh.truncate(valid_bytes)
        self.resumed = len(done)
        # Replay completed work first — straight from the file, no
        # simulation — then execute only the remainder.
        for index in sorted(done):
            if self._cancelled:
                return
            yield done[index]
        todo = [job for job in jobs if job.index not in done]
        by_index = {job.index: job for job in todo}
        sink = None
        if self.checkpoint:
            parent = os.path.dirname(self.checkpoint)
            if parent:
                os.makedirs(parent, exist_ok=True)
            sink = open(self.checkpoint, "a")
        # One inner backend reused for every chunk: a process pool's
        # workers survive across chunks instead of being re-forked
        # per chunk (which would dominate short cells on big grids).
        # Imported here because the package imports this module.
        from repro.exec import make_backend

        inner = make_backend(workers=self.workers)
        self._inner = inner
        try:
            for start in range(0, len(todo), self.chunk_size):
                if self._cancelled:
                    return
                chunk = todo[start : start + self.chunk_size]
                for cell in inner.submit(chunk):
                    if sink is not None:
                        record = cell_to_json(cell)
                        record["key"] = job_fingerprint(by_index[cell.index])
                        sink.write(json.dumps(record))
                        sink.write("\n")
                        sink.flush()
                    yield cell
                    if self._cancelled:
                        return
        finally:
            inner.close()
            self._inner = None
            if sink is not None:
                sink.close()

    def cancel(self) -> None:
        super().cancel()
        if self._inner is not None:
            self._inner.cancel()

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
            self._inner = None
