"""Tests for the simulated SMP machine: dispatch, quanta, blocking,
service accounting, preemption, kills, signals, build-time arrivals."""

import gc
import math

import pytest

from tests.conftest import add_finite, add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.scenario.runner import build_machine, run_scenario
from repro.scenario.server import server_scenario
from repro.scenario.spec import Compute, Kill, Scenario, SetWeight, TaskSpec, task
from repro.sim.engine import Engine, EventHandle
from repro.sim.events import Block, Exit, Run
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


def make_machine(cpus=2, quantum=0.2, **kw) -> Machine:
    return Machine(SurplusFairScheduler(), cpus=cpus, quantum=quantum, **kw)


class TestConstruction:
    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError):
            Machine(SurplusFairScheduler(), cpus=0)

    def test_rejects_nonpositive_quantum(self):
        # NaN slips past `quantum <= 0` and used to fail only at the
        # first dispatch, as an event scheduled "in the past".
        for quantum in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="quantum must be > 0"):
                Machine(SurplusFairScheduler(), quantum=quantum)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            Machine(SurplusFairScheduler(), quantum_jitter=1.5)

    def test_scheduler_cannot_be_attached_twice(self):
        sched = SurplusFairScheduler()
        Machine(sched)
        with pytest.raises(RuntimeError):
            Machine(sched)


class TestServiceAccounting:
    def test_single_task_gets_all_of_one_cpu(self):
        m = make_machine(cpus=1)
        t = add_inf(m, 1, "A")
        m.run_until(10.0)
        assert t.service == pytest.approx(10.0)

    def test_two_tasks_two_cpus_full_utilization(self):
        m = make_machine(cpus=2)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 5, "B")
        m.run_until(10.0)
        # Work conservation: both run continuously whatever the weights.
        assert a.service == pytest.approx(10.0)
        assert b.service == pytest.approx(10.0)

    def test_total_service_equals_capacity_when_saturated(self):
        m = make_machine(cpus=2)
        tasks = [add_inf(m, i + 1, f"T{i}") for i in range(5)]
        m.run_until(8.0)
        assert sum(t.service for t in tasks) == pytest.approx(16.0)

    def test_busy_time_matches_service(self):
        m = make_machine(cpus=2)
        tasks = [add_inf(m, 1, f"T{i}") for i in range(3)]
        m.run_until(4.0)
        busy = sum(p.busy_time for p in m.processors)
        assert busy == pytest.approx(sum(t.service for t in tasks))

    def test_late_arrival_gets_no_service_before_arrival(self):
        m = make_machine(cpus=1)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 1, "B", at=5.0)
        m.run_until(10.0)
        assert b.service <= 2.6  # about half of the last 5 s
        assert a.service + b.service == pytest.approx(10.0)

    def test_finite_task_exits_after_consuming_cpu(self):
        m = make_machine(cpus=1)
        t = add_finite(m, 0.5, 1, "F")
        m.run_until(2.0)
        assert t.state is TaskState.EXITED
        assert t.service == pytest.approx(0.5)
        assert t.exit_time == pytest.approx(0.5)

    def test_finite_task_exit_time_under_contention(self):
        m = make_machine(cpus=1)
        add_inf(m, 1, "bg")
        t = add_finite(m, 0.4, 1, "F")
        m.run_until(5.0)
        assert t.state is TaskState.EXITED
        assert t.service == pytest.approx(0.4)
        # With one competitor it takes roughly twice its CPU demand.
        assert 0.4 <= t.exit_time <= 1.4


class TestBlockingAndWakeup:
    def test_blocking_task_releases_cpu(self):
        m = make_machine(cpus=1)

        def gen():
            yield Run(0.1)
            yield Block(1.0)
            yield Run(0.1)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="blocky"))
        bg = add_inf(m, 1, "bg")
        m.run_until(3.0)
        assert t.service == pytest.approx(0.2)
        # Background picks up all the slack.
        assert bg.service == pytest.approx(2.8)

    def test_block_durations_are_wall_clock(self):
        m = make_machine(cpus=1)

        def gen():
            yield Run(0.1)
            yield Block(0.5)
            yield Run(0.1)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="b"))
        m.run_until(2.0)
        # 0.1 run + 0.5 sleep + 0.1 run -> exits at 0.7.
        assert t.exit_time == pytest.approx(0.7)

    def test_task_starting_blocked_counts_as_arrival_on_first_wake(self):
        m = make_machine(cpus=2)

        def gen():
            yield Block(1.0)
            yield Run(math.inf)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="sleeper"))
        m.run_until(0.5)
        assert t.state is TaskState.BLOCKED
        m.run_until(2.0)
        assert t.state in (TaskState.RUNNING, TaskState.RUNNABLE)
        assert t.service == pytest.approx(1.0)

    def test_block_count_incremented(self):
        m = make_machine(cpus=1)

        def gen():
            for _ in range(3):
                yield Run(0.05)
                yield Block(0.05)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="b"))
        m.run_until(2.0)
        assert t.block_count == 3


class TestQuanta:
    def test_quantum_expiry_preempts(self):
        m = make_machine(cpus=1, quantum=0.2)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(2.0)
        assert a.preempt_count >= 4
        assert b.preempt_count >= 4
        # Equal weights share the single CPU equally.
        assert a.service == pytest.approx(1.0, abs=0.2)

    def test_consecutive_run_segments_do_not_invoke_scheduler(self):
        m = make_machine(cpus=1, quantum=1.0)

        def gen():
            # Two back-to-back run segments inside one quantum.
            yield Run(0.1)
            yield Run(0.1)
            yield Exit()

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="seg"))
        m.run_until(1.0)
        assert t.service == pytest.approx(0.2)
        assert t.dispatch_count == 1

    def test_quantum_jitter_stays_in_bounds(self):
        m = make_machine(cpus=1, quantum=0.2, quantum_jitter=0.1)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(5.0)
        # With +-10% jitter the share stays near one half.
        assert a.service == pytest.approx(2.5, abs=0.3)

    def test_jitter_is_deterministic_per_seed(self):
        def run(seed):
            m = make_machine(cpus=2, quantum=0.2, quantum_jitter=0.05, jitter_seed=seed)
            ts = [add_inf(m, w, f"T{w}") for w in (1, 2, 3)]
            m.run_until(5.0)
            return [t.service for t in ts]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestKill:
    def test_kill_running_task(self):
        m = make_machine(cpus=1)
        t = add_inf(m, 1, "A")
        m.kill_task_at(t, 1.0)
        m.run_until(2.0)
        assert t.state is TaskState.EXITED
        assert t.service == pytest.approx(1.0)

    def test_kill_runnable_task(self):
        m = make_machine(cpus=1)
        add_inf(m, 1, "hog")
        t = add_inf(m, 1, "victim")
        # Kill it early, likely while waiting for the CPU.
        m.kill_task_at(t, 0.05)
        m.run_until(1.0)
        assert t.state is TaskState.EXITED

    def test_kill_blocked_task_cancels_wake(self):
        m = make_machine(cpus=1)

        def gen():
            yield Run(0.05)
            yield Block(10.0)
            yield Run(math.inf)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="b"))
        m.kill_task_at(t, 1.0)
        m.run_until(12.0)
        assert t.state is TaskState.EXITED
        assert t.service == pytest.approx(0.05)

    def test_kill_is_idempotent(self):
        m = make_machine(cpus=1)
        t = add_inf(m, 1, "A")
        m.kill_task_at(t, 0.5)
        m.kill_task_at(t, 0.6)
        m.run_until(1.0)
        assert t.state is TaskState.EXITED

    def test_cpu_rescheduled_after_kill(self):
        m = make_machine(cpus=1)
        t = add_inf(m, 1, "A")
        bg = add_inf(m, 1, "B", at=0.0)
        m.kill_task_at(t, 1.0)
        m.run_until(3.0)
        assert bg.service == pytest.approx(3.0 - t.service, abs=0.01)


class TestSignals:
    def test_signal_wakes_infinite_block(self):
        m = make_machine(cpus=1)

        def gen():
            yield Run(0.1)
            yield Block(math.inf)
            yield Run(0.1)
            yield Exit()

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="waiter"))
        m.engine.schedule_at(1.0, m.signal, t)
        m.run_until(2.0)
        assert t.state is TaskState.EXITED
        assert t.exit_time == pytest.approx(1.1)

    def test_signal_nonblocked_task_is_lost(self):
        m = make_machine(cpus=1)
        t = add_inf(m, 1, "A")
        m.engine.schedule_at(0.5, m.signal, t)
        m.run_until(1.0)  # no crash; signal ignored
        assert t.state in (TaskState.RUNNING, TaskState.RUNNABLE)

    def test_signal_later_defers_to_after_current_event(self):
        m = make_machine(cpus=1)

        def gen():
            yield Run(0.1)
            yield Block(math.inf)
            yield Run(0.1)
            yield Exit()

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="w"))
        m.engine.schedule_at(0.5, m.signal_later, t, 0.0)
        m.run_until(2.0)
        assert t.exit_time == pytest.approx(0.6)


class TestObservers:
    def test_exit_callback_invoked(self):
        m = make_machine(cpus=1)
        seen = []
        m.on_task_exit.append(lambda task, now: seen.append((task.name, now)))
        add_finite(m, 0.3, 1, "F")
        m.run_until(1.0)
        assert seen == [("F", pytest.approx(0.3))]

    def test_work_conservation_check_passes_for_sfs(self):
        m = Machine(
            SurplusFairScheduler(), cpus=2, quantum=0.1, check_work_conserving=True
        )
        for i in range(5):
            add_inf(m, i + 1, f"T{i}")
        m.run_until(3.0)  # must not raise

    def test_runnable_count_tracks_states(self):
        m = make_machine(cpus=2)
        add_inf(m, 1, "A")

        def gen():
            yield Run(0.1)
            yield Block(5.0)
            yield Run(math.inf)

        m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="B"))
        m.run_until(1.0)
        assert m.runnable_count == 1
        assert m.live_count == 2


class TestWeightChange:
    def test_change_weight_rebalances_allocation(self):
        m = make_machine(cpus=1, quantum=0.05)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(5.0)
        before_a = a.service
        m.change_weight(a, 4.0)
        m.run_until(15.0)
        # After the change A should get ~4/5 of the CPU.
        delta_a = a.service - before_a
        assert delta_a / 10.0 == pytest.approx(0.8, abs=0.08)

    def test_set_weight_at_schedules_change(self):
        m = make_machine(cpus=1)
        a = add_inf(m, 1, "A")
        m.set_weight_at(a, 3.0, 1.0)
        m.run_until(2.0)
        assert a.weight == 3.0


class TestBuildTimeArrivals:
    """``add_tasks``: a declared population as one sorted engine run."""

    SCENARIO = Scenario(
        name="ties",
        quantum=0.25,
        duration=3.0,
        tasks=(
            # declared out of `at` order, with duplicate `at`s
            task("late", 1, Compute(0.4), at=1.0),
            task("a", 2, at=0.0),
            task("b", 1, at=0.0),
            # arrive exactly at a and b's second quantum end
            task("c", 3, Compute(0.3), at=0.5),
            task("d", 1, Compute(0.2), at=0.5),
            task("e", 1, at=1.0),
            task("f", 2, Compute(0.5), at=1.5),
        ),
        # events at arrival timestamps: they fire after the arrival
        events=(Kill("e", 1.0), SetWeight("f", 5.0, 1.5), Kill("late", 1.0)),
    )

    @staticmethod
    def _outcome(result):
        names = {t.tid: name for name, t in result.tasks.items()}
        trace = result.machine.trace
        return (
            [(t, kind, names[tid], w) for t, kind, tid, w in trace.event_tuples()],
            {n: (t.service, t.exit_time) for n, t in result.tasks.items()},
            result.machine.engine.events_fired,
        )

    def test_tie_order_matches_one_add_task_per_task(self, monkeypatch):
        loaded = self._outcome(run_scenario(self.SCENARIO))

        def one_by_one(machine, tasks, at):
            for t, when in zip(tasks, at):
                machine.add_task(t, at=when)

        monkeypatch.setattr(Machine, "add_tasks", one_by_one)
        assert loaded == self._outcome(run_scenario(self.SCENARIO))
        events, tasks, _ = loaded
        # the kill at e's arrival finds e arrived, not NEW
        assert (1.0, "arrive", "e", 1.0) in events
        assert tasks["e"] == (0.0, 1.0)

    def test_nan_arrival_names_the_task(self):
        scenario = Scenario(
            name="nan", duration=1.0, tasks=(TaskSpec("a", at=math.nan),)
        )
        with pytest.raises(ValueError, match="a has a NaN arrival time: at=nan"):
            run_scenario(scenario)
        m = make_machine()
        with pytest.raises(ValueError, match="b has a NaN arrival time: at=nan"):
            add_inf(m, 1, "b", at=math.nan)

    def test_negative_arrival_arrives_at_zero(self):
        result = run_scenario(
            Scenario(name="neg", duration=1.0, tasks=(task("a", at=-2.0),))
        )
        assert result.tasks["a"].arrival_time == 0.0
        assert result.tasks["a"].service == 1.0

    def test_infinite_arrival_never_arrives(self):
        result = run_scenario(
            Scenario(name="inf", duration=1.0, tasks=(task("a", at=math.inf),))
        )
        a = result.tasks["a"]
        assert (a.state, a.arrival_time, a.service) == (TaskState.NEW, None, 0.0)
        assert result.machine.engine.pending == 1

    def test_each_task_is_added_once(self):
        m = make_machine()
        t = Task(Infinite(), name="A")
        with pytest.raises(ValueError, match="A has already been added"):
            m.add_tasks([t, t], [0.0, 1.0])
        with pytest.raises(ValueError, match="zip"):
            m.add_tasks([Task(Infinite())], [0.0, 1.0])

    def test_build_allocates_three_tracked_objects_per_task(self):
        # Task, its behaviour and its service series: the arrival itself
        # adds no handle, args tuple, bound method or bucket per task.
        n = 2000
        scenario = server_scenario(n, cost_model="lmbench", seed=42)
        handle_types = (EventHandle, type(Engine().schedule_at(0.0, print)))
        gc.collect()
        gc.disable()
        try:
            objects = gc.get_objects()
            before = len(objects)
            handles = sum(isinstance(o, handle_types) for o in objects)
            del objects
            machine, tasks, _ = build_machine(scenario)
            objects = gc.get_objects()
            added = len(objects) - before
            added_handles = sum(isinstance(o, handle_types) for o in objects) - handles
            del objects
        finally:
            gc.enable()
        assert machine.engine.pending == len(tasks) == n
        assert added_handles == 0
        assert added <= 3 * n + 100
