"""Tests for the analysis package: fairness, charts, tables, CSV, series."""


import pytest

from tests.conftest import add_finite, add_inf
from repro.analysis.charts import bar_chart, line_chart, sparkline
from repro.analysis.csvout import write_rows, write_series
from repro.analysis.fairness import (
    gms_deviation,
    jains_index,
    longest_starvation,
    max_relative_unfairness,
    starvation_intervals,
)
from repro.analysis.tables import format_seconds, render_table
from repro.analysis.timeseries import (
    cumulative_series,
    rate_series,
    regular_times,
    window,
)
from repro.core.gms import replay_trace
from repro.core.sfs import SurplusFairScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.sim.machine import Machine
from repro.sim.tracing import Trace


class TestFairness:
    def test_jains_index_perfectly_fair(self):
        assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jains_index_unfair(self):
        assert jains_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_jains_index_empty(self):
        assert jains_index([]) == 1.0

    def test_gms_deviation_small_for_sfs(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        tasks = [add_inf(m, w, f"w{w}") for w in (1, 2, 3)]
        m.run_until(10.0)
        dev = gms_deviation(m)
        for task in tasks:
            assert abs(dev[task.tid]) < 0.5  # within a few quanta

    def test_gms_deviation_streams_the_recorded_timeline(self, monkeypatch):
        # The deviation replays the columnar timeline as it is stored:
        # it must equal a replay of the materialized records without
        # building one TraceEvent.
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        for w in (1, 2, 3):
            add_inf(m, w, f"w{w}")
        add_finite(m, 0.5, 4, "job", at=1.0)
        m.run_until(10.0)

        def refuse(self):
            raise AssertionError("the trace was materialized")

        monkeypatch.setattr(Trace, "events", property(refuse))
        got = gms_deviation(m)
        monkeypatch.undo()
        ideal = replay_trace(m.trace.events, m.num_cpus, m.now)
        assert got == {t.tid: t.service - ideal.get(t.tid, 0.0) for t in m.tasks}

    def test_gms_deviation_large_for_starving_sfq(self):
        # Example 1: plain SFQ deviates from GMS by ~the starved time.
        m = Machine(StartTimeFairScheduler(), cpus=2, quantum=0.001)
        t1 = add_inf(m, 1, "T1")
        add_inf(m, 10, "T2")
        add_inf(m, 1, "T3", at=1.0)
        m.run_until(2.0)
        dev = gms_deviation(m)
        assert dev[t1.tid] < -0.3

    def test_starvation_detects_flat_interval(self):
        m = Machine(StartTimeFairScheduler(), cpus=2, quantum=0.001)
        t1 = add_inf(m, 1, "T1")
        add_inf(m, 10, "T2")
        add_inf(m, 1, "T3", at=1.0)
        m.run_until(2.5)
        gap = longest_starvation(t1, 1.0, 2.5, resolution=0.01)
        assert gap == pytest.approx(0.9, abs=0.1)

    def test_no_starvation_for_continuously_served_task(self):
        m = Machine(SurplusFairScheduler(), cpus=1, quantum=0.1)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(5.0)
        # Resolution of 0.3 >> alternation period 0.2: no flat window.
        assert longest_starvation(a, 0.0, 5.0, resolution=0.3) == 0.0

    def test_starvation_intervals_empty_for_degenerate_window(self):
        m = Machine(SurplusFairScheduler(), cpus=1)
        a = add_inf(m, 1, "A")
        m.run_until(1.0)
        assert starvation_intervals(a, 1.0, 1.0) == []

    def test_max_relative_unfairness_zero_for_identical(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        tasks = [add_inf(m, 1, f"T{i}") for i in range(2)]
        m.run_until(10.0)
        u = max_relative_unfairness(tasks, 1.0, 9.0)
        assert u < 0.1


class TestCharts:
    def test_line_chart_renders_series(self):
        out = line_chart(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=5,
            title="demo",
        )
        assert "demo" in out
        assert "*" in out and "o" in out

    def test_line_chart_empty(self):
        assert "(no data)" in line_chart({}, title="t")

    def test_line_chart_flat_series(self):
        out = line_chart({"flat": [(0, 5), (1, 5)]}, width=10, height=3)
        assert "flat" in out

    def test_bar_chart(self):
        out = bar_chart({"x": 10.0, "y": 5.0}, width=10, title="bars")
        lines = out.splitlines()
        assert lines[0] == "bars"
        assert lines[1].count("#") > lines[2].count("#")

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart({})

    def test_sparkline(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] != s[-1]

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([2, 2]) == "▁▁"


class TestTables:
    def test_render_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", "+"}

    def test_float_formatting(self):
        out = render_table(["v"], [[0.000123456]])
        assert "e" in out.lower() or "0.0001" in out

    def test_format_seconds_units(self):
        assert format_seconds(0.7e-6) == "0.7 us"
        assert format_seconds(2e-3) == "2.00 ms"
        assert format_seconds(1.5) == "1.500 s"


class TestTimeseries:
    def test_regular_times(self):
        ts = regular_times(0.0, 1.0, 0.25)
        assert ts == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_regular_times_rejects_bad_step(self):
        with pytest.raises(ValueError):
            regular_times(0, 1, 0)

    def test_cumulative_and_rate(self):
        m = Machine(SurplusFairScheduler(), cpus=1)
        t = add_inf(m, 1, "A")
        m.run_until(2.0)
        series = cumulative_series(t, [0.0, 1.0, 2.0], scale=10.0)
        assert series[-1][1] == pytest.approx(20.0)
        rates = rate_series(series)
        assert rates[0][1] == pytest.approx(10.0)

    def test_window(self):
        points = [(0.0, 1), (1.0, 2), (2.0, 3)]
        assert window(points, 0.5, 2.0) == [(1.0, 2)]


class TestCsv:
    def test_write_rows(self, tmp_path):
        path = str(tmp_path / "out" / "rows.csv")
        write_rows(path, ["a", "b"], [[1, 2], [3, 4]])
        content = open(path).read().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2"

    def test_write_series(self, tmp_path):
        path = str(tmp_path / "series.csv")
        write_series(path, {"s": [(0.0, 1.0), (1.0, 2.0)]})
        content = open(path).read().splitlines()
        assert content[0] == "series,time,value"
        assert len(content) == 3
