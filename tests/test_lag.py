"""Tests for the service-lag analysis (windowed GMS deviation)."""

import pytest

from tests.conftest import add_inf
from repro.analysis.lag import lag_curve, lag_report, max_absolute_lag
from repro.core.sfs import SurplusFairScheduler
from repro.scenario import InteractiveLoop, Kill, Scenario, SetWeight, run_scenario, task
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.sim.machine import Machine


class TestLagCurve:
    def test_sfs_lag_bounded_by_a_few_quanta(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        tasks = [add_inf(m, w, f"w{w}") for w in (1, 2, 3)]
        m.run_until(20.0)
        for t in tasks:
            assert max_absolute_lag(m, t, 0.0, 20.0) < 0.5, t.name

    def test_lag_curve_starts_near_zero(self):
        m = Machine(SurplusFairScheduler(), cpus=1, quantum=0.1)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(5.0)
        curve = lag_curve(m, a, 0.0, 5.0)
        assert abs(curve[0][1]) < 0.11

    def test_sfq_starvation_shows_as_large_negative_lag(self):
        m = Machine(StartTimeFairScheduler(), cpus=2, quantum=0.001)
        t1 = add_inf(m, 1, "T1")
        add_inf(m, 10, "T2")
        add_inf(m, 1, "T3", at=1.0)
        m.run_until(2.0)
        curve = lag_curve(m, t1, 0.0, 2.0, step=0.05)
        assert min(v for _, v in curve) < -0.25

    def test_round_robin_lags_against_weighted_ideal(self):
        # RR ignores a 1:3 weighting: the heavy task falls behind GMS.
        m = Machine(RoundRobinScheduler(), cpus=1, quantum=0.1)
        add_inf(m, 1, "light")
        heavy = add_inf(m, 3, "heavy")
        m.run_until(10.0)
        assert max_absolute_lag(m, heavy, 0.0, 10.0) > 1.0

    def test_lag_report_covers_all_tasks(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        add_inf(m, 1, "A")
        add_inf(m, 2, "B")
        m.run_until(2.0)
        report = lag_report(m, 0.0, 2.0)
        assert set(report) == {"A", "B"}

    def test_step_validation(self):
        m = Machine(SurplusFairScheduler(), cpus=1)
        a = add_inf(m, 1, "A")
        m.run_until(1.0)
        with pytest.raises(ValueError):
            lag_curve(m, a, 0.0, 1.0, step=0.0)

    def test_refuses_a_run_without_recorded_events(self):
        # The replay would see no arrivals and report every task's
        # whole service as its lag.
        m = Machine(SurplusFairScheduler(), cpus=1, record_events=False)
        a = add_inf(m, 1, "A")
        m.run_until(1.0)
        with pytest.raises(ValueError, match="record_events=True"):
            lag_report(m, 0.0, 1.0)
        with pytest.raises(ValueError, match="record_events=True"):
            lag_curve(m, a, 0.0, 1.0)


class TestOneReplayPerReport:
    def test_report_equals_each_tasks_max_absolute_lag(self):
        # lag_report replays the run once for every task; it must equal
        # the one-task views exactly, and each of those the extreme of
        # its task's curve. Arrivals, wakeups, blocks, a weight change
        # and an exit all reach the replay.
        scenario = Scenario(
            name="lag-mix",
            scheduler="sfq",
            cpus=2,
            quantum=0.05,
            duration=4.0,
            tasks=(
                task("a", 1),
                task("b", 4),
                task("c", 2, InteractiveLoop(think_time=0.2, burst=0.05, seed=1)),
                task("d", 10, at=0.7),
            ),
            events=(SetWeight("a", 3.0, at=2.0), Kill("d", at=3.1)),
        )
        m = run_scenario(scenario).machine
        report = lag_report(m, 0.0, 4.0, step=0.07)
        assert report == {
            t.name: max_absolute_lag(m, t, 0.0, 4.0, step=0.07) for t in m.tasks
        }
        for t in m.tasks:
            curve = lag_curve(m, t, 0.0, 4.0, step=0.07)
            assert report[t.name] == max(abs(v) for _, v in curve)
        assert max(report.values()) > 0.1
