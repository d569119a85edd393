"""CSV/JSON output for experiment results.

Every experiment can write its series/rows as CSV so figures can be
re-plotted outside the sandbox. Files go to ``results/`` by default.

Besides the one-shot :func:`write_rows` / :func:`write_series`, the
module ships two **streaming** writers — :class:`RowStream` (CSV) and
:class:`JsonArrayStream` — that flush each row to disk the moment it
is appended. They exist for grid runs: a 10^4-cell sweep iterated via
:func:`repro.exec.stream_cells` exports incrementally, cell by cell,
instead of materialising the whole grid in memory first (and a killed
run leaves every finished row on disk).
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Mapping, Sequence

__all__ = ["write_rows", "write_series", "RowStream", "JsonArrayStream"]


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_rows(
    path: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Write rows with a header line; creates parent dirs. Returns path."""
    with RowStream(path, headers, flush_each=False) as stream:
        for row in rows:
            stream.append(row)
    return path


def write_series(
    path: str,
    series: Mapping[str, Sequence[tuple[float, float]]],
    x_name: str = "time",
) -> str:
    """Write named (x, y) series as long-form CSV (series, x, y)."""
    rows = [(name, x, y) for name, points in series.items() for x, y in points]
    return write_rows(path, ["series", x_name, "value"], rows)


class RowStream:
    """Incremental CSV writer: header up front, one row at a time.

    Produces byte-identical output to :func:`write_rows` fed the same
    rows; the only difference is *when* the bytes hit the disk.
    ``flush_each`` (the default) flushes after every row so a killed
    run keeps everything already appended; one-shot bulk exports turn
    it off and pay a single buffered write instead of a syscall per
    row.
    """

    def __init__(
        self, path: str, headers: Sequence[str], flush_each: bool = True
    ) -> None:
        _ensure_parent(path)
        self.path = path
        self._flush_each = flush_each
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(headers)
        if flush_each:
            self._fh.flush()

    def append(self, row: Sequence[object]) -> None:
        self._writer.writerow(row)
        if self._flush_each:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonArrayStream:
    """Incremental writer for a JSON array of objects.

    Emits the same ``json.dump(items, fh, indent=2)`` layout as a
    one-shot dump, but each :meth:`append` lands (flushed) on disk
    immediately. :meth:`close` terminates the array; an interrupted
    run leaves a truncated-but-recoverable file (every completed
    element is intact JSON).
    """

    def __init__(self, path: str) -> None:
        _ensure_parent(path)
        self.path = path
        self._fh = open(path, "w")
        self._count = 0
        self._fh.write("[")
        self._fh.flush()

    def append(self, item: Any) -> None:
        prefix = ",\n" if self._count else "\n"
        body = json.dumps(item, indent=2)
        indented = "\n".join("  " + line for line in body.splitlines())
        self._fh.write(prefix + indented)
        self._fh.flush()
        self._count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.write("\n]" if self._count else "]")
            self._fh.write("\n")
            self._fh.close()

    def __enter__(self) -> "JsonArrayStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
