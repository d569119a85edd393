"""Unit tests for the CI perf-trend gate (repro.analysis.trend).

The acceptance contract: a synthetic 2x-slower BENCH_scale.json is
flagged, the unchanged one passes, vanished cells fail, and the
--update-baseline path round-trips through the compact baseline file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.trend import (
    compare,
    dump_baseline,
    extract_cells,
    load_baseline,
    to_markdown,
)


def bench_json(cells):
    """Fake pytest-benchmark report with one entry per (sched, n, evps)."""
    return {
        "benchmarks": [
            {
                "name": f"test_server_scale_events_per_sec[{n}-{sched}]",
                "extra_info": {
                    "scheduler": sched,
                    "n_tasks": n,
                    "events": 1000 * n,
                    "events_per_sec": evps,
                },
            }
            for sched, n, evps in cells
        ]
    }


GRID = [("sfs", 100, 40000.0), ("sfs", 5000, 30000.0), ("sfq", 100, 80000.0)]


class TestExtract:
    def test_extracts_keyed_cells(self):
        cells = extract_cells(bench_json(GRID))
        assert set(cells) == {("sfs", 100), ("sfs", 5000), ("sfq", 100)}
        assert cells[("sfs", 5000)].events_per_sec == 30000.0
        assert cells[("sfs", 5000)].events == 5_000_000

    def test_ignores_non_grid_benchmarks(self):
        report = bench_json(GRID)
        report["benchmarks"].append({"name": "test_fig1", "extra_info": {}})
        assert len(extract_cells(report)) == len(GRID)


class TestCompare:
    def test_identical_run_passes(self):
        cells = extract_cells(bench_json(GRID))
        report = compare(cells, cells)
        assert report.ok
        assert all(row.status == "ok" for row in report.rows)

    def test_synthetic_2x_regression_is_flagged(self):
        baseline = extract_cells(bench_json(GRID))
        slowed = [
            (sched, n, evps / 2.1 if (sched, n) == ("sfs", 5000) else evps)
            for sched, n, evps in GRID
        ]
        report = compare(baseline, extract_cells(bench_json(slowed)))
        assert not report.ok
        assert [row.key for row in report.regressions] == [("sfs", 5000)]

    def test_regression_within_threshold_passes(self):
        baseline = extract_cells(bench_json(GRID))
        slowed = [(sched, n, evps / 1.9) for sched, n, evps in GRID]
        assert compare(baseline, extract_cells(bench_json(slowed))).ok

    def test_missing_cell_fails(self):
        baseline = extract_cells(bench_json(GRID))
        fresh = extract_cells(bench_json(GRID[:-1]))
        report = compare(baseline, fresh)
        assert not report.ok
        assert report.regressions[0].status == "missing"

    def test_new_cell_is_informational(self):
        baseline = extract_cells(bench_json(GRID[:-1]))
        report = compare(baseline, extract_cells(bench_json(GRID)))
        assert report.ok
        assert any(row.status == "new" for row in report.rows)

    def test_improvement_is_labelled(self):
        baseline = extract_cells(bench_json(GRID))
        faster = [(sched, n, evps * 3) for sched, n, evps in GRID]
        report = compare(baseline, extract_cells(bench_json(faster)))
        assert report.ok
        assert all(row.status == "improved" for row in report.rows)

    def test_event_count_drift_is_reported(self):
        baseline = extract_cells(bench_json(GRID))
        drifted = bench_json(GRID)
        drifted["benchmarks"][0]["extra_info"]["events"] += 7
        report = compare(baseline, extract_cells(drifted))
        assert report.ok  # drift warns, only slowness gates
        assert any(row.events_drift for row in report.rows)
        assert "drift" in to_markdown(report)

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            compare({}, {}, threshold=1.0)

    def test_millisecond_cells_inform_but_never_gate(self):
        # 200 events at 100k ev/s = 2 ms of wall: pure scheduler noise
        # territory, so even a 3x "regression" must not turn CI red.
        tiny = {
            "benchmarks": [
                {
                    "name": "t",
                    "extra_info": {
                        "scheduler": "round-robin",
                        "n_tasks": 100,
                        "events": 200,
                        "events_per_sec": 100_000.0,
                    },
                }
            ]
        }
        baseline = extract_cells(tiny)
        slowed = extract_cells(tiny)
        slowed_cell = next(iter(slowed.values()))
        slowed[slowed_cell.key] = type(slowed_cell)(
            scheduler=slowed_cell.scheduler,
            n_tasks=slowed_cell.n_tasks,
            events_per_sec=slowed_cell.events_per_sec / 3,
            events=slowed_cell.events,
        )
        report = compare(baseline, slowed)
        assert report.ok
        assert report.rows[0].status == "too-small"
        assert "below gating floor" in to_markdown(report)


class TestBaselineFile:
    def test_round_trip(self, tmp_path):
        cells = extract_cells(bench_json(GRID))
        path = tmp_path / "baseline.json"
        dump_baseline(cells, path, note="test")
        assert load_baseline(path) == cells

    def test_update_baseline_keeps_context_switches(self, tmp_path):
        report = bench_json(GRID)
        for i, bench in enumerate(report["benchmarks"]):
            bench["extra_info"]["context_switches"] = 7 + i
        path = tmp_path / "baseline.json"
        dump_baseline(extract_cells(report), path)
        assert json.loads(path.read_text())["cells"][0]["context_switches"] == 9
        switches = {k: c.context_switches for k, c in load_baseline(path).items()}
        assert switches == {("sfs", 100): 7, ("sfs", 5000): 8, ("sfq", 100): 9}

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "cells": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_committed_baseline_loads_and_covers_the_grid(self):
        path = Path(__file__).parent.parent / "benchmarks" / "baseline_scale.json"
        cells = load_baseline(path)
        assert ("sfs", 5000) in cells
        assert ("sfs-overload", 5000) in cells
        assert all(cell.events_per_sec > 0 for cell in cells.values())


def _load_cli():
    path = Path(__file__).parent.parent / "benchmarks" / "check_trend.py"
    spec = importlib.util.spec_from_file_location("check_trend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCli:
    def test_gate_red_on_regression_and_step_summary(self, tmp_path, monkeypatch):
        cli = _load_cli()
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(bench_json(GRID)))
        update = [str(fresh), "--baseline", str(baseline), "--update-baseline"]
        assert cli.main(update) == 0

        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert cli.main([str(fresh), "--baseline", str(baseline)]) == 0

        slowed = [(sched, n, evps / 4) for sched, n, evps in GRID]
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(bench_json(slowed)))
        assert cli.main([str(slow), "--baseline", str(baseline)]) == 1
        assert "Regressed cells" in summary.read_text()

    def test_gate_errors_without_baseline(self, tmp_path):
        cli = _load_cli()
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(bench_json(GRID)))
        missing = tmp_path / "nope.json"
        assert cli.main([str(fresh), "--baseline", str(missing)]) == 2

    def test_gate_errors_on_empty_report(self, tmp_path):
        cli = _load_cli()
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps({"benchmarks": []}))
        assert cli.main([str(fresh)]) == 2
