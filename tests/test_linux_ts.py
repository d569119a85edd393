"""Tests for the Linux 2.2 time-sharing baseline."""

import math

import pytest

from tests.conftest import add_inf
from repro.schedulers.linux_ts import (
    LinuxTimeSharingScheduler,
    PROC_CHANGE_PENALTY,
)
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


def machine(cpus=2, **kw):
    return Machine(LinuxTimeSharingScheduler(), cpus=cpus, quantum=0.2, **kw)


class TestGoodness:
    def test_goodness_zero_when_counter_spent(self):
        sched = LinuxTimeSharingScheduler()
        task = Task(Infinite(), weight=1)
        task.sched["counter"] = 0.0
        assert sched.goodness(task) == 0.0

    def test_goodness_counter_plus_priority(self):
        sched = LinuxTimeSharingScheduler()
        task = Task(Infinite(), weight=1, ts_priority=20)
        task.sched["counter"] = 10.0
        assert sched.goodness(task) == 30.0

    def test_affinity_bonus_on_same_cpu(self):
        sched = LinuxTimeSharingScheduler()
        task = Task(Infinite(), weight=1, ts_priority=20)
        task.sched["counter"] = 10.0
        task.last_cpu = 1
        assert sched.goodness(task, cpu=1) == 30.0 + PROC_CHANGE_PENALTY
        assert sched.goodness(task, cpu=0) == 30.0


class TestEpochs:
    def test_counters_recharge_when_all_spent(self):
        m = machine(cpus=1)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(2.0)
        sched = m.scheduler
        assert sched.recalculations >= 1
        # Both keep making progress across epochs.
        assert a.service > 0.5
        assert b.service > 0.5

    def test_sleeper_keeps_half_counter(self):
        """2.2's interactivity mechanism: counter = counter/2 + priority
        at each epoch, so sleepers accumulate goodness."""
        sched = LinuxTimeSharingScheduler()
        m = Machine(sched, cpus=1, quantum=0.2)

        def gen():
            yield Run(0.01)
            yield Block(5.0)
            yield Run(math.inf)

        sleeper = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="s"))
        add_inf(m, 1, "hog1")
        add_inf(m, 1, "hog2")
        m.run_until(4.0)  # several epochs pass while the sleeper sleeps
        # The sleeping process banked counter: counter > priority.
        assert sleeper.sched["counter"] > 20.0

    def test_weights_are_ignored(self):
        # The TS scheduler has no proportional sharing: a weight-10
        # process gets the same as weight-1 peers (Fig. 6(b)'s point).
        m = machine(cpus=1)
        heavy = add_inf(m, 10, "heavy")
        light = add_inf(m, 1, "light")
        m.run_until(10.0)
        assert heavy.service == pytest.approx(light.service, rel=0.1)


class TestInteractivity:
    def test_interactive_process_preempts_batch(self):
        m = machine(cpus=1)

        def gen():
            while True:
                yield Block(0.5)
                yield Run(0.005)

        inter = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="i"))
        add_inf(m, 1, "batch")
        m.run_until(10.0)
        # ~19 wakeups, each handled promptly thanks to banked goodness.
        assert inter.service == pytest.approx(0.095, abs=0.03)

    def test_quantum_is_counter_times_tick(self):
        sched = LinuxTimeSharingScheduler()
        Machine(sched, cpus=1)
        task = Task(Infinite(), weight=1, ts_priority=20)
        task.sched["counter"] = 20.0
        assert sched.quantum_for(task, 0, 0.0) == pytest.approx(0.2)

    def test_rejects_bad_tick(self):
        with pytest.raises(ValueError):
            LinuxTimeSharingScheduler(tick=0.0)

    @pytest.mark.parametrize("tick", [math.nan, math.inf])
    def test_rejects_non_finite_tick(self, tick):
        # `tick <= 0` admits NaN, which then failed mid-run scheduling
        # an event at a NaN time
        with pytest.raises(ValueError, match="tick must be finite"):
            LinuxTimeSharingScheduler(tick=tick)


class TestSMP:
    def test_two_cpus_fully_utilized(self):
        m = machine(cpus=2)
        tasks = [add_inf(m, 1, f"T{i}") for i in range(4)]
        m.run_until(5.0)
        assert sum(t.service for t in tasks) == pytest.approx(10.0)

    def test_equal_processes_get_roughly_equal_service(self):
        m = machine(cpus=2)
        tasks = [add_inf(m, 1, f"T{i}") for i in range(4)]
        m.run_until(20.0)
        services = [t.service for t in tasks]
        assert max(services) - min(services) < 2.0
