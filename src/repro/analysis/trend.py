"""Perf-trend comparison for the CI scale benchmark.

``benchmarks/test_bench_scale.py`` records simulator throughput
(events/sec) per (scheduler, N) cell into a pytest-benchmark JSON
report. This module diffs a fresh report against a committed baseline
(``benchmarks/baseline_scale.json``) and flags any cell whose
throughput regressed by more than a threshold factor (default 2x) —
the CI job turns red so hot-path wins can't silently rot, without
blocking merges (wall-clock noise across runner generations is real;
the baseline is refreshed with ``--update-baseline`` when it drifts).

Two signals per cell:

- ``events_per_sec`` — the wall-clock metric the gate thresholds;
- ``events`` — the *simulated* event count, which is deterministic for
  a given scenario. A change there is not noise but a behavior change,
  and is reported separately as drift.

Each baseline cell also carries its deterministic ``context_switches``
count; the scale benchmark asserts both counts against the baseline in
tier-1, and ``--update-baseline`` keeps them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BASELINE_VERSION",
    "MIN_GATED_SECONDS",
    "Cell",
    "Row",
    "TrendReport",
    "extract_cells",
    "load_baseline",
    "dump_baseline",
    "compare",
    "to_markdown",
]

BASELINE_VERSION = 1

#: extra_info keys that identify and describe one grid cell
_KEY_FIELDS = ("scheduler", "n_tasks")

#: cells whose baseline wall time (events / events_per_sec) is below
#: this many seconds are reported but never *gated*: a couple of
#: milliseconds of run measures scheduler hiccups, not the simulator,
#: and a 2x ratio there is indistinguishable from noise even with the
#: bench's best-of-N walls.
MIN_GATED_SECONDS = 0.025


@dataclass(frozen=True)
class Cell:
    """One (scheduler, N) measurement from the scale benchmark."""

    scheduler: str
    n_tasks: int
    events_per_sec: float
    events: int | None = None
    context_switches: int | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.scheduler, self.n_tasks)


@dataclass(frozen=True)
class Row:
    """One compared cell: baseline vs fresh plus the verdict."""

    key: tuple[str, int]
    baseline: Cell | None
    fresh: Cell | None
    #: baseline/fresh throughput ratio (> 1 means slower now)
    ratio: float | None
    #: "ok" | "regression" | "improved" | "new" | "missing" | "too-small"
    status: str
    #: deterministic simulated-event count changed (behavior drift)
    events_drift: bool = False


@dataclass
class TrendReport:
    rows: list[Row]
    threshold: float

    @property
    def regressions(self) -> list[Row]:
        return [r for r in self.rows if r.status in ("regression", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions


def extract_cells(bench_json: dict) -> dict[tuple[str, int], Cell]:
    """Pull the (scheduler, N) cells out of a pytest-benchmark report.

    Only benchmarks that recorded every ``_KEY_FIELDS`` entry plus
    ``events_per_sec`` in ``extra_info`` participate (i.e. the scale
    grid; the figure-regeneration benches are ignored).
    """
    cells: dict[tuple[str, int], Cell] = {}
    for bench in bench_json.get("benchmarks", []):
        info = bench.get("extra_info", {})
        if any(field not in info for field in _KEY_FIELDS):
            continue
        if "events_per_sec" not in info:
            continue
        cell = Cell(
            scheduler=str(info["scheduler"]),
            n_tasks=int(info["n_tasks"]),
            events_per_sec=float(info["events_per_sec"]),
            events=int(info["events"]) if "events" in info else None,
            context_switches=info.get("context_switches"),
        )
        cells[cell.key] = cell
    return cells


def load_baseline(path: str | Path) -> dict[tuple[str, int], Cell]:
    """Read the committed compact baseline file."""
    data = json.loads(Path(path).read_text())
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {path} "
            f"(expected {BASELINE_VERSION}); regenerate with "
            "--update-baseline"
        )
    cells: dict[tuple[str, int], Cell] = {}
    for entry in data["cells"]:
        cell = Cell(
            scheduler=str(entry["scheduler"]),
            n_tasks=int(entry["n_tasks"]),
            events_per_sec=float(entry["events_per_sec"]),
            events=entry.get("events"),
            context_switches=entry.get("context_switches"),
        )
        cells[cell.key] = cell
    return cells


def dump_baseline(
    cells: dict[tuple[str, int], Cell], path: str | Path, note: str = ""
) -> None:
    """Write the compact, diff-friendly baseline file."""
    payload = {
        "version": BASELINE_VERSION,
        "metric": "events_per_sec",
        "note": note,
        "cells": [
            {
                "scheduler": cell.scheduler,
                "n_tasks": cell.n_tasks,
                "events_per_sec": cell.events_per_sec,
                "events": cell.events,
                "context_switches": cell.context_switches,
            }
            for _, cell in sorted(cells.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def compare(
    baseline: dict[tuple[str, int], Cell],
    fresh: dict[tuple[str, int], Cell],
    threshold: float = 2.0,
) -> TrendReport:
    """Diff fresh cells against the baseline.

    A cell regresses when its throughput dropped by more than
    ``threshold``x (ratio = baseline/fresh). Cells present in the
    baseline but absent from the fresh run count as regressions too
    (``missing`` — a silently vanished measurement must not pass);
    brand-new cells are informational, as are cells too fast to gate
    honestly (baseline wall below :data:`MIN_GATED_SECONDS`).
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold}")
    rows: list[Row] = []
    for key in sorted(set(baseline) | set(fresh)):
        base, now = baseline.get(key), fresh.get(key)
        if base is None:
            rows.append(Row(key, None, now, None, "new"))
            continue
        if now is None:
            rows.append(Row(key, base, None, None, "missing"))
            continue
        ratio = base.events_per_sec / now.events_per_sec
        gated = (
            base.events is None
            or base.events / base.events_per_sec >= MIN_GATED_SECONDS
        )
        if ratio > threshold:
            status = "regression" if gated else "too-small"
        elif ratio < 1.0 / threshold:
            status = "improved"
        else:
            status = "ok"
        drift = (
            base.events is not None
            and now.events is not None
            and base.events != now.events
        )
        rows.append(Row(key, base, now, ratio, status, events_drift=drift))
    return TrendReport(rows=rows, threshold=threshold)


_STATUS_MARK = {
    "ok": "✅",
    "improved": "🚀",
    "regression": "❌",
    "missing": "❌ missing",
    "new": "🆕",
    "too-small": "⚪ slower, below gating floor",
}


def to_markdown(report: TrendReport) -> str:
    """Render the comparison as the GitHub step-summary table."""
    lines = [
        f"### Scale-benchmark trend (threshold {report.threshold:g}x)",
        "",
        "| scheduler | N | baseline ev/s | fresh ev/s | ratio | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for row in report.rows:
        scheduler, n_tasks = row.key
        base = f"{row.baseline.events_per_sec:,.0f}" if row.baseline else "—"
        now = f"{row.fresh.events_per_sec:,.0f}" if row.fresh else "—"
        ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "—"
        status = _STATUS_MARK.get(row.status, row.status)
        if row.events_drift:
            status += " ⚠️ event-count drift"
        lines.append(
            f"| {scheduler} | {n_tasks} | {base} | {now} | {ratio} | {status} |"
        )
    lines.append("")
    if report.ok:
        lines.append("No cell regressed beyond the threshold.")
    else:
        keys = ", ".join(f"{s}@N={n}" for (s, n) in (r.key for r in report.regressions))
        lines.append(f"**Regressed cells:** {keys}")
    return "\n".join(lines)
