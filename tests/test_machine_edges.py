"""Edge-case tests for the machine: zero-length segments, exact ties,
heavy churn stress, and API misuse."""

import math

import pytest

from tests.conftest import add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.sim.events import Block, Exit, Run
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.base import Behavior, GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


def machine(cpus=1, quantum=0.2, **kw):
    return Machine(SurplusFairScheduler(), cpus=cpus, quantum=quantum, **kw)


class TestZeroLengthSegments:
    def test_zero_run_exits_immediately(self):
        m = machine()
        t = m.add_task(Task(GeneratorBehavior(iter([Run(0.0)])), weight=1,
                            name="z"))
        m.run_until(1.0)
        assert t.state is TaskState.EXITED
        assert t.service == 0.0

    def test_zero_block_is_a_yield(self):
        m = machine()

        def gen():
            yield Run(0.05)
            yield Block(0.0)  # sched_yield-like
            yield Run(0.05)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="y"))
        m.run_until(1.0)
        assert t.state is TaskState.EXITED
        assert t.service == pytest.approx(0.1)

    def test_immediate_exit_behavior(self):
        m = machine()
        t = m.add_task(Task(GeneratorBehavior(iter([Exit()])), weight=1,
                            name="e"))
        m.run_until(0.5)
        assert t.state is TaskState.EXITED
        assert t.service == 0.0

    def test_negative_segment_durations_rejected(self):
        # NaN slips past a bare `< 0` guard: Run(nan) then runs forever
        # and Block(nan) fails mid-run naming neither segment nor task.
        for duration in (-0.1, math.nan):
            with pytest.raises(ValueError, match="Run duration must be >= 0"):
                Run(duration)
            with pytest.raises(ValueError, match="Block duration must be >= 0"):
                Block(duration)


class TestSegmentQuantumBoundary:
    def test_segment_ending_exactly_at_quantum_end(self):
        # Run(0.2) with quantum 0.2: the segment completes (does not
        # get preempted into a zombie re-dispatch).
        m = machine(quantum=0.2)

        def gen():
            yield Run(0.2)
            yield Exit()

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="x"))
        m.run_until(1.0)
        assert t.state is TaskState.EXITED
        assert t.exit_time == pytest.approx(0.2)
        assert t.preempt_count == 0

    def test_segment_slightly_longer_than_quantum(self):
        m = machine(quantum=0.2)

        def gen():
            yield Run(0.21)
            yield Exit()

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="x"))
        m.run_until(1.0)
        assert t.state is TaskState.EXITED
        assert t.preempt_count == 1
        assert t.service == pytest.approx(0.21)


class TestApiMisuse:
    def test_task_cannot_arrive_twice(self):
        m = machine()
        t = add_inf(m, 1, "A")
        with pytest.raises(ValueError):
            m.add_task(t)

    def test_behavior_returning_garbage_raises(self):
        class Bad(Behavior):
            def start(self, now):
                return Run(0.1)

            def next_segment(self, now):
                return "lunch break"

        m = machine()
        m.add_task(Task(Bad(), weight=1, name="bad"))
        with pytest.raises(TypeError):
            m.run_until(1.0)

    def test_bad_initial_segment_raises(self):
        class Bad(Behavior):
            def start(self, now):
                return 42

            def next_segment(self, now):  # pragma: no cover
                return Exit()

        m = machine()
        m.add_task(Task(Bad(), weight=1, name="bad"))
        with pytest.raises(TypeError):
            m.run_until(1.0)

    def test_task_weight_validation(self):
        # NaN slips past a bare `<= 0` guard; NaN and inf would then
        # reach the exact readjustment sum as a raw error mid-run.
        for weight in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                Task(Infinite(), weight=weight)
        # A non-finite footprint made the switch cost NaN (or parked the
        # CPU at t = inf) instead of failing at construction.
        for footprint in (-1, math.inf, math.nan):
            with pytest.raises(ValueError, match="footprint_kb must be finite"):
                Task(Infinite(), weight=1, footprint_kb=footprint)

    def test_weight_setter_validation(self):
        t = Task(Infinite(), weight=1)
        for weight in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                t.weight = weight
        assert t.weight == 1.0


class TestDeadTaskGuards:
    """Control operations landing on already-exited tasks (Fig. 4-style
    scripts where a set_weight_at fires after a kill_task_at)."""

    def test_set_weight_after_kill_is_a_noop(self):
        m = machine()
        t = add_inf(m, 4, "victim")
        m.kill_task_at(t, 1.0)
        m.set_weight_at(t, 99.0, 2.0)
        m.run_until(3.0)
        assert t.state is TaskState.EXITED
        assert t.weight == 4  # the dead task's weight was not mutated

    def test_change_weight_on_exited_does_not_notify_scheduler(self):
        notified = []
        m = machine()
        t = add_inf(m, 2, "victim")
        m.run_until(0.5)
        m.kill_task(t)
        orig = m.scheduler.on_weight_change
        m.scheduler.on_weight_change = (
            lambda *a, **k: notified.append(a) or orig(*a, **k)
        )
        m.change_weight(t, 7.0)
        assert notified == []
        assert t.weight == 2

    def test_kill_before_arrival_prevents_arrival(self):
        m = machine()
        t = m.add_task(Task(Infinite(), weight=1, name="late"), at=2.0)
        m.kill_task_at(t, 1.0)
        m.run_until(3.0)
        assert t.state is TaskState.EXITED
        assert t.arrival_time is None
        assert t not in m.tasks  # never resurrected by the arrival event
        assert t.service == 0.0
        assert m.live_count == 0

    def test_signal_after_exit_is_a_noop(self):
        m = machine()

        def gen():
            yield Run(0.1)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="b"))
        m.run_until(0.5)
        assert t.state is TaskState.EXITED
        m.signal(t)  # lost, like a condition variable with no waiter
        m.run_until(1.0)
        assert t.state is TaskState.EXITED

    def test_double_kill_is_idempotent_for_live_count(self):
        m = machine()
        t = add_inf(m, 1, "once")
        m.run_until(0.1)
        m.kill_task(t)
        m.kill_task(t)
        assert m.live_count == 0


class TestIncrementalAccounting:
    """live_count is maintained incrementally; it must always equal the
    O(n) scan it replaced."""

    @staticmethod
    def scan(m):
        return sum(1 for t in m.tasks if t.state is not TaskState.EXITED)

    def test_live_count_matches_scan_through_churn(self):
        from repro.workloads.cpu_bound import FiniteCompute

        m = machine(cpus=2, quantum=0.05)

        def blinker():
            while True:
                yield Run(0.02)
                yield Block(0.03)

        tasks = []
        for i in range(20):
            if i % 3 == 0:
                beh = GeneratorBehavior(blinker())
            else:
                beh = FiniteCompute(0.05 * (i % 5 + 1))
            tasks.append(m.add_task(Task(beh, weight=1, name=f"c{i}"),
                                    at=0.1 * i))
        m.kill_task_at(tasks[0], 0.9)
        m.kill_task_at(tasks[3], 1.7)
        for stop in (0.5, 1.0, 1.5, 2.5, 5.0):
            m.run_until(stop)
            assert m.live_count == self.scan(m)

    def test_live_count_counts_blocked_tasks(self):
        m = machine()

        def sleeper():
            yield Block(math.inf)

        t = m.add_task(Task(GeneratorBehavior(sleeper()), weight=1,
                            name="s"))
        m.run_until(0.1)
        assert t.state is TaskState.BLOCKED
        assert m.live_count == 1
        m.kill_task(t)
        assert m.live_count == 0

    def test_immediate_exit_behavior_never_counts(self):
        m = machine()
        m.add_task(Task(GeneratorBehavior(iter([Exit()])), weight=1,
                        name="e"))
        m.run_until(0.5)
        assert m.live_count == self.scan(m) == 0


class TestServiceSampleDecimation:
    def test_interval_validation(self):
        # NaN slipped past `< 0` and silently disabled the final-total pin.
        for interval in (-0.1, math.nan):
            with pytest.raises(ValueError, match="service_sample_interval"):
                machine(service_sample_interval=interval)

    def test_decimation_preserves_totals_and_schedule(self):
        def build(interval):
            m = machine(cpus=2, quantum=0.05,
                        service_sample_interval=interval)
            ts = [add_inf(m, w, f"w{w}") for w in (1, 2, 4)]
            m.run_until(5.0)
            return m, ts

        m0, exact = build(0.0)
        m1, decimated = build(1.0)
        for a, b in zip(exact, decimated):
            assert a.service == b.service  # identical scheduling
            assert len(b.series) < len(a.series)  # but far fewer points
        assert m0.engine.events_fired == m1.engine.events_fired


class TestStress:
    def test_hundred_tasks_heavy_blocking_churn(self):
        m = machine(cpus=4, quantum=0.02, sample_service=False,
                    record_events=False)

        def blinker(run_len, sleep_len):
            def gen():
                while True:
                    yield Run(run_len)
                    yield Block(sleep_len)
            return gen()

        tasks = []
        for i in range(100):
            beh = GeneratorBehavior(blinker(0.005 + (i % 7) * 0.003,
                                            0.01 + (i % 5) * 0.007))
            tasks.append(m.add_task(Task(beh, weight=(i % 4) + 1,
                                         name=f"t{i}")))
        m.run_until(5.0)
        total = sum(t.service for t in tasks)
        assert 0 < total <= 20.0 + 1e-6
        # No task got stuck in a bogus state.
        for t in tasks:
            assert t.state in (TaskState.RUNNING, TaskState.RUNNABLE,
                               TaskState.BLOCKED)

    def test_many_simultaneous_arrivals_and_exits(self):
        from repro.workloads.cpu_bound import FiniteCompute

        m = machine(cpus=2, quantum=0.05)
        tasks = [
            m.add_task(Task(FiniteCompute(0.1), weight=1, name=f"f{i}"))
            for i in range(50)
        ]
        m.run_until(10.0)
        assert all(t.state is TaskState.EXITED for t in tasks)
        assert sum(t.service for t in tasks) == pytest.approx(5.0)

    def test_run_until_is_resumable(self):
        m = machine()
        t = add_inf(m, 1, "A")
        for step in range(1, 11):
            m.run_until(step * 0.5)
            assert t.service == pytest.approx(step * 0.5)
