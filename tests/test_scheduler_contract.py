"""Contract tests every registered scheduler must satisfy.

These run the same scenarios across the whole registry so that any new
policy automatically inherits the machine-interface obligations: work
conservation, sane state handling under churn, full utilization,
determinism, and survival of weight changes mid-run.
"""

import math
import random

import pytest

from repro.schedulers.registry import (
    make_scheduler,
    scheduler_names,
    scheduler_params_for,
)
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import FiniteCompute, Infinite

ALL = scheduler_names()


@pytest.mark.parametrize("name", ALL)
def test_work_conserving_under_static_load(name):
    machine = Machine(make_scheduler(name), cpus=2, quantum=0.1,
                      check_work_conserving=True)
    for i in range(5):
        machine.add_task(Task(Infinite(), weight=i + 1, name=f"T{i}"))
    machine.run_until(3.0)  # must not raise
    total = sum(t.service for t in machine.tasks)
    assert total == pytest.approx(6.0)


@pytest.mark.parametrize("name", ALL)
def test_survives_churn(name):
    """Arrivals, departures, blocking, wakeups and kills in one run."""
    machine = Machine(make_scheduler(name), cpus=2, quantum=0.05)
    rng = random.Random(3)

    def blinker():
        while True:
            yield Run(0.02)
            yield Block(0.03)

    persistent = [
        machine.add_task(Task(Infinite(), weight=rng.choice([1, 2, 4]),
                              name=f"p{i}"))
        for i in range(3)
    ]
    for i in range(10):
        machine.add_task(
            Task(FiniteCompute(0.1), weight=1, name=f"f{i}"), at=i * 0.3
        )
    for i in range(3):
        machine.add_task(
            Task(GeneratorBehavior(blinker()), weight=1, name=f"b{i}")
        )
    machine.kill_task_at(persistent[0], 2.0)
    machine.run_until(5.0)
    assert persistent[0].state is TaskState.EXITED
    # The machine stayed saturated (>=2 runnable at all times).
    busy = sum(p.busy_time for p in machine.processors)
    assert busy == pytest.approx(10.0, abs=0.5)


@pytest.mark.parametrize("name", ALL)
def test_single_task_owns_machine(name):
    machine = Machine(make_scheduler(name), cpus=1, quantum=0.1)
    t = machine.add_task(Task(Infinite(), weight=1, name="solo"))
    machine.run_until(2.0)
    assert t.service == pytest.approx(2.0)


@pytest.mark.parametrize("name", ALL)
def test_deterministic_given_same_setup(name):
    def run():
        machine = Machine(make_scheduler(name), cpus=2, quantum=0.1)
        tasks = [
            machine.add_task(Task(Infinite(), weight=w, name=f"w{w}"))
            for w in (1, 2, 3)
        ]
        machine.run_until(3.0)
        return [t.service for t in tasks]

    assert run() == run()


@pytest.mark.parametrize("name", ALL)
def test_weight_change_does_not_crash(name):
    machine = Machine(make_scheduler(name), cpus=2, quantum=0.1)
    tasks = [
        machine.add_task(Task(Infinite(), weight=1, name=f"T{i}"))
        for i in range(4)
    ]
    machine.set_weight_at(tasks[0], 5.0, 1.0)
    machine.set_weight_at(tasks[1], 0.5, 2.0)
    machine.run_until(4.0)
    assert sum(t.service for t in tasks) == pytest.approx(8.0)


@pytest.mark.parametrize("name", ALL)
def test_blocked_tasks_never_scheduled(name):
    machine = Machine(make_scheduler(name), cpus=2, quantum=0.05)

    def sleeper():
        yield Run(0.01)
        yield Block(100.0)
        yield Run(math.inf)

    s = machine.add_task(Task(GeneratorBehavior(sleeper()), weight=100,
                              name="sleeper"))
    hogs = [
        machine.add_task(Task(Infinite(), weight=1, name=f"h{i}"))
        for i in range(2)
    ]
    machine.run_until(5.0)
    assert s.service == pytest.approx(0.01)
    assert sum(h.service for h in hogs) == pytest.approx(10.0 - 0.01, abs=0.05)


@pytest.mark.parametrize(
    "name",
    [n for n in ALL if n not in ("linux-ts", "round-robin")],
)
def test_proportional_policies_track_weights_uniprocessor(name):
    """Every proportional-share policy gives 1:3 within tolerance on a
    uniprocessor (lottery gets statistical slack)."""
    machine = Machine(make_scheduler(name), cpus=1, quantum=0.05)
    machine.add_task(Task(Infinite(), weight=1, name="a"))
    b = machine.add_task(Task(Infinite(), weight=3, name="b"))
    machine.run_until(30.0)
    share_b = b.service / 30.0
    tol = 0.10 if "lottery" in name else 0.06
    assert share_b == pytest.approx(0.75, abs=tol), name


@pytest.mark.parametrize("name", ALL)
def test_tasks_that_exit_while_blocked_leave_the_books(name):
    """A thread that ends on wakeup, or is killed asleep, exits BLOCKED.

    The scheduler must still hear of it: otherwise every such thread
    stays in its per-task books (tags, counters, class maps) for the
    rest of the run.
    """
    sched = make_scheduler(name)
    machine = Machine(sched, cpus=2, quantum=0.1, record_events=False)
    tasks = [
        machine.add_task(
            Task(
                GeneratorBehavior(iter([Run(0.01), Block(0.05)])),
                weight=1,
                name=f"t{i}",
            ),
            at=i * 0.01,
        )
        for i in range(1000)
    ]
    sleepers = [
        machine.add_task(
            Task(
                GeneratorBehavior(iter([Run(0.01), Block(100.0)])),
                weight=2,
                name=f"s{i}",
            )
        )
        for i in range(3)
    ]
    for sleeper in sleepers:
        machine.kill_task_at(sleeper, 20.0)
    machine.run_until(30.0)
    gone = {t.tid for t in tasks + sleepers}
    assert all(t.state is TaskState.EXITED for t in tasks + sleepers)
    for attr, books in vars(sched).items():
        if isinstance(books, dict):
            kept = gone & books.keys()
            assert not kept, f"{name}: {attr} still holds {len(kept)} exited tasks"


#: (scheduler, parameter, ill-typed value) for every built-in that takes it
ILL_TYPED = [
    (name, param, value)
    for name in ALL
    for param, value in (
        ("tag_math", "fixed"),
        ("readjust", 3),
        ("wake_preempt", "no"),
        ("track_accuracy", 1),
    )
    if param in (scheduler_params_for(name) or ())
]


@pytest.mark.parametrize("name, param, value", ILL_TYPED)
def test_ill_typed_params_fail_at_construction(name, param, value):
    # "no" and 3 used to pass as truthy; tag_math="fixed" crashed later
    # with an AttributeError naming no parameter.
    with pytest.raises(ValueError, match=param):
        make_scheduler(name, **{param: value})
