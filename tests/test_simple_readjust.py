"""Differential tests: stride and lottery readjust through the frontier.

``SimpleQueueScheduler`` maintains §2.1 readjustment with the same
incremental :class:`~repro.core.weights.ReadjustmentFrontier` the
tag-based schedulers use, and the batch pass it replaced is the
oracle. Random programs on a real
:class:`~repro.sim.machine.Machine` — 1 to 4 CPUs, populations below,
at and far above the processor count, feasible and infeasible weights
(log-uniform over 1e-6..1e6 included), staggered arrivals, block/wake
cycles, kills, and weight changes that land on runnable and on blocked
threads — must hold, after every hook, each runnable thread's ``phi``
equal to :func:`~repro.core.weights.readjust` over the runnable
weights bit for bit, with the frontier's members exactly the runnable
set.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import ReadjustmentFrontier, readjust
from repro.schedulers.lottery import LotteryScheduler
from repro.schedulers.registry import make_scheduler
from repro.schedulers.stride import StrideScheduler
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


class CheckedHooks:
    """Check the frontier against the batch oracle after every hook."""

    checked = 0

    def _check(self) -> None:
        runnable = list(self._runnable.values())
        expected = readjust([t.weight for t in runnable], self.machine.num_cpus)
        for task, phi in zip(runnable, expected):
            # sfs-lint: disable=SFS005 (frontier and batch oracle agree bit for bit)
            assert task.phi == phi, (
                f"{task.name}: frontier phi {task.phi!r} != batch {phi!r}"
            )
        assert sorted(t.tid for t in self.frontier) == sorted(self._runnable)
        self.checked += 1

    def on_arrival(self, task, now):
        super().on_arrival(task, now)
        self._check()

    def on_wakeup(self, task, now):
        super().on_wakeup(task, now)
        self._check()

    def on_block(self, task, now, ran):
        super().on_block(task, now, ran)
        self._check()

    def on_preempt(self, task, now, ran):
        super().on_preempt(task, now, ran)
        self._check()

    def on_exit(self, task, now, ran):
        super().on_exit(task, now, ran)
        self._check()

    def on_weight_change(self, task, old_weight, now):
        super().on_weight_change(task, old_weight, now)
        self._check()


class CheckedStride(CheckedHooks, StrideScheduler):
    pass


class CheckedLottery(CheckedHooks, LotteryScheduler):
    pass


SCHEDULERS = {"stride": CheckedStride, "lottery": CheckedLottery}

weight_sets = {
    "three": st.sampled_from([1.0, 4.0, 10.0]),
    "integer": st.integers(min_value=1, max_value=100).map(float),
    "log-uniform": st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e),
}

#: (run, block) pairs; None is a compute-bound thread
behaviour_st = st.one_of(
    st.none(),
    st.lists(
        st.tuples(
            st.sampled_from([0.01, 0.03, 0.05, 0.2]),
            st.sampled_from([0.01, 0.04, 0.1, 0.5]),
        ),
        min_size=1,
        max_size=4,
    ),
)
#: a coarse grid, so arrivals, kills and weight changes collide
instant_st = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.6])


@st.composite
def programs(draw):
    cpus = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.sampled_from(["fewer", "equal", "many"]))
    n = {"fewer": max(1, cpus - 1), "equal": cpus, "many": 6 * cpus}[size]
    weights = weight_sets[draw(st.sampled_from(sorted(weight_sets)))]
    index = st.integers(min_value=0, max_value=n - 1)
    later = st.sampled_from([0.1, 0.3, 0.45, 0.7, 1.2])
    return {
        "scheduler": draw(st.sampled_from(sorted(SCHEDULERS))),
        "cpus": cpus,
        "tasks": draw(
            st.lists(
                st.tuples(weights, instant_st, behaviour_st),
                min_size=n,
                max_size=n,
            )
        ),
        "changes": draw(st.lists(st.tuples(index, weights, later), max_size=6)),
        "kills": draw(st.lists(st.tuples(index, later), max_size=2)),
    }


def _cycle(segments):
    while True:
        for run, block in segments:
            yield Run(run)
            yield Block(block)


def run_program(program, horizon=1.5):
    sched = SCHEDULERS[program["scheduler"]](readjust=True)
    machine = Machine(sched, cpus=program["cpus"], quantum=0.05, record_events=False)
    tasks = []
    for i, (weight, at, segments) in enumerate(program["tasks"]):
        if segments is None:
            behavior = Infinite()
        else:
            behavior = GeneratorBehavior(_cycle(segments))
        task = Task(behavior, weight=weight, name=f"T{i}")
        tasks.append(machine.add_task(task, at=at))
    for index, weight, at in program["changes"]:
        machine.set_weight_at(tasks[index], weight, at)
    for index, at in program["kills"]:
        machine.kill_task_at(tasks[index], at)
    machine.run_until(horizon)
    return sched, tasks


@settings(max_examples=80, deadline=None)
@given(programs())
def test_phi_matches_batch_oracle_after_every_hook(program):
    sched, tasks = run_program(program)
    # A program whose every task is killed before it arrives may run no
    # hook at all, so there is nothing to check.
    if any(task.arrival_time is not None for task in tasks):
        assert sched.checked > 0


def _nap(run, block):
    yield Run(run)
    yield Block(block)
    yield Run(math.inf)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_weight_change_on_runnable_and_blocked_threads(scheduler):
    sched = SCHEDULERS[scheduler](readjust=True)
    machine = Machine(sched, cpus=2, quantum=0.05, record_events=False)
    # T0 and T1 take both CPUs at t = 0; T1 then sleeps 0.05 s - 0.55 s.
    t0 = machine.add_task(Task(Infinite(), weight=1.0, name="T0"))
    t1 = machine.add_task(
        Task(GeneratorBehavior(_nap(0.05, 0.5)), weight=1.0, name="T1")
    )
    t2 = machine.add_task(Task(Infinite(), weight=10.0, name="T2"), at=0.01)
    machine.add_task(Task(Infinite(), weight=1.0, name="T3"), at=0.01)
    machine.set_weight_at(t1, 50.0, 0.3)  # asleep: nothing to repair yet
    machine.set_weight_at(t0, 20.0, 0.45)  # runnable: repaired in place
    machine.kill_task_at(t2, 0.7)
    machine.run_until(1.5)
    assert sched.checked > 0
    # Awake since 0.55 s, T1's weight of 50 against 20 + 50 + 1 is
    # infeasible on two CPUs: it holds the capped phi 71 - 50 = 21.
    assert t1.tid in sched.frontier.readjusted()
    # sfs-lint: disable=SFS005 (a cap of integer weights is exact in floats)
    assert t1.phi == 21.0


@pytest.mark.parametrize("name", ["stride-readjust", "lottery-readjust"])
def test_readjusting_baselines_hold_a_frontier(name):
    sched = make_scheduler(name)
    Machine(sched, cpus=2)
    assert isinstance(sched.frontier, ReadjustmentFrontier)
    assert sched.frontier.p == 2


@pytest.mark.parametrize("name", ["stride", "lottery", "round-robin"])
def test_plain_baselines_track_user_weights(name):
    sched = make_scheduler(name)
    machine = Machine(sched, cpus=2, quantum=0.05)
    heavy = machine.add_task(Task(Infinite(), weight=10.0, name="heavy"))
    machine.add_task(Task(Infinite(), weight=1.0, name="light"))
    machine.run_until(0.2)
    assert sched.frontier is None
    machine.change_weight(heavy, 30.0)
    # sfs-lint: disable=SFS005 (phi is the user weight, bit for bit)
    assert heavy.phi == 30.0
